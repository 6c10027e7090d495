"""Ring arithmetic, differentiation, and the integration engine."""

import bisect
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cckp
from cckp import diffring, hierarchy, recursion
from cckp.diffring import (
    DiffPoly,
    antiderivative,
    clear_caches,
    d_x,
    integrate,
    prolong_t,
    scale_substitute,
    substitute_r_to_q,
    swap_q_r,
)
from cckp.errors import EngineError, NestingTooDeep, OddScaleResidue
from cckp.grammar import (
    parse_poly,
    poly_from_json,
    poly_json,
    poly_latex,
    poly_text,
)
from cckp.hierarchy import flow, lax_power, prolong_flow
from cckp.psido import residue

from conftest import (
    P,
    SEED,
    constant_part,
    constant_term,
    memo_sizes,
    random_local_poly,
    random_poly,
)

Q = DiffPoly.jet("q")
R = DiffPoly.jet("r")
QX = DiffPoly.jet("q", 1)
RX = DiffPoly.jet("r", 1)


def _reduce(reducer, vec):
    """Split vec as (pre, residue) dicts with vec == d_x(pre) + residue.

    A dict view of `_Reducer.split`; coefficients come back as `int`
    wherever they are integral.
    """
    den = math.lcm(*(Fraction(c).denominator for c in vec.values()))
    work = {k: int(c * den) for k, c in vec.items()}
    d, pre, res = reducer.split(work)
    return tuple(diffring._divided(dict(v), d * den) for v in (pre, res))


def _symdeg(jets):
    """The sorted (symbol, degree) pairs of a jet tuple, by a dict and a sort."""
    d = {}
    for (sym, _), p in jets:
        d[sym] = d.get(sym, 0) + p
    return tuple(sorted(d.items()))


def _mono_form(key):
    """The engine's memoized integer form of one monomial, a one-term vector."""
    return diffring._form(((key, 1),))


def _nf_atom(key):
    """The engine's memoized split of one monomial as (d_x preimage, residue)."""
    return _as_pair(_mono_form(key))


class TestArithmetic:
    def test_additive_identity(self):
        assert QX + DiffPoly.zero() == QX

    def test_additive_inverse(self):
        t = 3 * Q * R * QX
        assert t + (-t) == DiffPoly.zero()

    def test_third_flow_assembly(self):
        total = (P("q[3]") + 9 * Q * R * QX) + 3 * Q ** 2 * RX
        assert total == P("q[3] + 9*q*r*q' + 3*q^2*r'")

    def test_simple_products(self):
        assert Q * R == P("q*r")
        assert (2 * Q) * (2 * R) == P("4*q*r")
        assert (Q + R) * (Q - R) == P("q^2 - r^2")

    def test_constants_and_powers(self):
        assert DiffPoly.const(Fraction(2, 3)) * 3 == DiffPoly.const(2)
        assert Q ** 3 == Q * Q * Q

    def test_ring_axioms_randomized(self):
        rng = random.Random(SEED)
        for _ in range(200):
            a = random_poly(rng, allow_atoms=True, allow_scale=True)
            b = random_poly(rng, allow_atoms=True, allow_scale=True)
            c = random_poly(rng, allow_atoms=True, allow_scale=True)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_monomial_products_match_the_summing_dict(self):
        # One side of one term takes the path without a dict; the stored
        # terms (keys, order, coefficient types) must be the dict path's.
        rng = random.Random(SEED)
        for _ in range(300):
            a = random_poly(rng, max_terms=1, allow_atoms=True, allow_scale=True)
            b = random_poly(rng, max_terms=5, allow_atoms=True, allow_scale=True)
            a = a * rng.choice((1, -3, Fraction(2, 3), Fraction(3, 2)))
            d = {}
            diffring._products_into(d, a, b)
            want = DiffPoly._from_dict(d).terms
            for got in (a * b, b * a):
                assert got.terms == want
                assert _coeff_types(got) == _coeff_types(DiffPoly(want))


def _merged_products_into(acc, a, b, c=1):
    """`_products_into` by the key merge alone, for every pair of keys."""
    for k1, c1 in a.terms:
        for k2, c2 in b.terms:
            k = diffring._key_mul(k1, k2)
            v = acc.get(k, 0) + c * c1 * c2
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]


def _both_products(a, b, c=1):
    """The dicts `_products_into` and the merge oracle fill from empty."""
    got, want = {}, {}
    diffring._products_into(got, a, b, c)
    _merged_products_into(want, a, b, c)
    return got, want


class TestPackedProducts:
    """Local, lam-free sides multiply as packed ints; the rest by the merge."""

    def test_products_match_the_merge_randomized(self):
        rng = random.Random(SEED)
        packed = 0
        for i in range(300):
            kw = dict(
                max_terms=5, max_factors=3, max_order=9, max_weight=30,
                symbols=("q", "r", "u"),
                allow_atoms=i % 3 == 0, allow_scale=i % 5 == 0,
            )
            a, b = random_poly(rng, **kw), random_poly(rng, **kw)
            c = rng.choice((1, -2, Fraction(3, 4)))
            seed = {k: 1 for k, _ in (a * b).terms[:2]}
            got, want = _both_products(a, b, c)
            assert got == want
            assert list(got) == list(want)
            # A seeded dict (as the Leibniz expansion passes) as well.
            got, want = dict(seed), dict(seed)
            diffring._products_into(got, a, b, c)
            _merged_products_into(want, a, b, c)
            assert list(got.items()) == list(want.items())
            packed += bool(
                len(a.terms) > 1 and len(b.terms) > 1
                and diffring._packed(a) and diffring._packed(b)
            )
        assert packed > 50

    def test_one_term_sides_match_the_merge_randomized(self):
        # One-term sides pack as well: their products never meet, but a
        # seeded dict (as the Leibniz expansion passes) must still get the
        # merge's keys, coefficients and key order.
        rng = random.Random(SEED)
        packed = 0
        for i in range(300):
            kw = dict(
                max_factors=3, max_order=9, max_weight=30,
                symbols=("q", "r", "u"),
                allow_atoms=i % 3 == 0, allow_scale=i % 5 == 0,
            )
            a = random_poly(rng, max_terms=1, **kw)
            b = random_poly(rng, max_terms=1 + i % 5, **kw)
            c = rng.choice((1, -2, Fraction(3, 4)))
            seed = {k: 1 for k, _ in (a * b + b).terms[:3]}
            for x, y in ((a, b), (b, a)):
                for start in ({}, seed):
                    got, want = dict(start), dict(start)
                    diffring._products_into(got, x, y, c)
                    _merged_products_into(want, x, y, c)
                    assert list(got.items()) == list(want.items())
            packed += bool(
                len(a.terms) == 1
                and diffring._packed(a) and diffring._packed(b)
            )
        assert packed > 50

    def test_sides_with_atoms_or_lam_are_not_packed(self):
        atom = antiderivative(P("q*r"))
        assert diffring._packed(Q + atom) is False
        assert diffring._packed(Q + DiffPoly.lam()) is False
        assert diffring._packed(Q * DiffPoly.lam(-1) + R) is False
        assert diffring._packed(Q + R)

    def test_free_symbols_are_not_packed(self):
        # q, r and u pack, each jet in its own 8-bit slot; v and w go down
        # the factor-merge path, as atoms and lam do.
        assert diffring._pack_key(P("q'^2*r").terms[0][0]) == (2 << 24) + (1 << 8)
        assert diffring._pack_key(P("u[2]").terms[0][0]) == 1 << 64
        for text in ("v", "w'", "q*v", "r[3]*w^2"):
            assert diffring._pack_key(P(text).terms[0][0]) is False
        assert diffring._packed(Q + P("v")) is False
        a, b = P("q*v' + w^2 - r"), P("v*w + q'")
        got, want = _both_products(a, b)
        assert list(got.items()) == list(want.items())
        assert a * b == P(
            "q*v*v'*w + q*q'*v' + v*w^3 + q'*w^2 - r*v*w - q'*r"
        )

    def test_degree_127_packs_and_degree_128_falls_back(self):
        # Two packed keys of degree under 128 sum without a carry between
        # 8-bit slots; a key of degree 128 is not packed at all.
        b = Q + R
        for power, packs in ((127, True), (128, False)):
            a = Q ** power + QX
            assert bool(diffring._packed(a)) is packs
            got, want = _both_products(a, b)
            assert list(got.items()) == list(want.items())
            assert got[(((("q", 0), power + 1),), (), 0)] == 1

    def test_packs_made_before_clear_caches_stay_valid(self):
        a = P("q*r' + 2*u[9]^3 - q[4]*r")
        b = P("r[2]^2 - u*q + 3")
        before = a * b
        assert diffring._packed(a) and diffring._packed(b)
        clear_caches()
        assert not diffring._UNPACK
        assert a._pack and b._pack
        got, want = _both_products(a, b)
        assert list(got.items()) == list(want.items())
        assert a * b == before


def _dx_by_keys(p):
    """d_x of p key by key through `_dx_key`, the path of unpackable keys."""
    d = {}
    for key, c in p.terms:
        diffring._addto(d, diffring._dx_key(key).items(), c)
    return DiffPoly._from_dict(d)


def _no_dx_key(key):
    raise AssertionError(f"_dx_key called on {key!r}")


def _assert_pack_decodes(p):
    """p keeps a pack whose ints decode to its terms, in its order."""
    assert p._pack is not None
    assert [(diffring._unpack(e), c) for e, c in p._pack] == list(p.terms)
    assert [e for e, _ in p._pack] == [diffring._pack_key(k) for k, _ in p.terms]


class TestPackedDerivative:
    """d_x of a packable polynomial works on its pack, like `_dx_key`."""

    def test_matches_the_key_path_randomized(self):
        rng = random.Random(SEED)
        packed = 0
        for i in range(300):
            p = random_poly(
                rng, max_terms=6, max_factors=3, max_order=9, max_weight=30,
                symbols=("q", "r", "u"),
                allow_atoms=i % 4 == 0, allow_scale=i % 7 == 0,
            )
            p = p * rng.choice((1, -3, Fraction(1, 2), Fraction(2, 3)))
            want = _dx_by_keys(p)
            got = d_x(p)
            assert list(got.terms) == list(want.terms)
            assert _coeff_types(got) == _coeff_types(want)
            if diffring._packed(p):
                packed += 1
                _assert_pack_decodes(got)
        assert packed > 150

    def test_derivative_chains_stay_packed(self, monkeypatch):
        p = P("1/2*q^2*r' - 3*u[4]*q + r^3 + 7")
        want = [p]
        for _ in range(6):
            want.append(_dx_by_keys(want[-1]))
        monkeypatch.setattr(diffring, "_dx_key", _no_dx_key)
        for n in range(1, 7):
            got = d_x(p, n)
            assert list(got.terms) == list(want[n].terms)
            _assert_pack_decodes(got)

    def test_degree_127_packs_and_the_rest_falls_back(self, monkeypatch):
        calls = []

        def counted(key):
            calls.append(key)
            return dx_key(key)

        dx_key = diffring._dx_key
        atom = antiderivative(P("q*r"))
        for p, packs in (
            (Q ** 126 * R + QX, True),
            (Q ** 127 * R + QX, False),
            (Q * atom + QX, False),
            (DiffPoly.lam(2) * Q + QX, False),
        ):
            want = _dx_by_keys(p)
            calls.clear()
            monkeypatch.setattr(diffring, "_dx_key", counted)
            got = d_x(p)
            monkeypatch.setattr(diffring, "_dx_key", dx_key)
            assert list(got.terms) == list(want.terms)
            assert bool(diffring._packed(p)) is packs
            assert bool(calls) is not packs
            assert (got._pack is not None) is packs

    def test_packs_made_before_clear_caches_stay_valid(self):
        p = P("q*r' + 2*u[9]^3 - q[4]*r^2")
        want = _dx_by_keys(p)
        assert diffring._packed(p)
        clear_caches()
        assert not diffring._UNPACK and not diffring._PACK
        got = d_x(p, 2)
        assert list(d_x(p).terms) == list(want.terms)
        assert list(got.terms) == list(_dx_by_keys(want).terms)
        _assert_pack_decodes(got)


class TestConstructor:
    """`DiffPoly(terms)` is canonical: repeated keys summed, zeros dropped."""

    T = ((((("q", 0), 1),), (), 0), 1)

    def test_repeated_keys_are_summed(self):
        p = DiffPoly((self.T, self.T))
        assert p == 2 * Q and hash(p) == hash(2 * Q)
        assert p + 0 == p and hash(p + 0) == hash(p)
        assert p.terms == (2 * Q).terms

    def test_zero_terms_are_dropped(self):
        k = self.T[0]
        for p in (DiffPoly(((k, 0),)), DiffPoly(((k, 1), (k, -1)))):
            assert not p and p.is_zero
            assert p == 0 and p == DiffPoly.zero()
            assert hash(p) == hash(DiffPoly.zero())

    def test_coefficients_are_canonical(self):
        half = (self.T[0], Fraction(1, 2))
        for p in (DiffPoly(((self.T[0], Fraction(4, 2)),)), DiffPoly((half,) * 4)):
            assert p == 2 * Q and hash(p) == hash(2 * Q)
            assert _coeff_types(p) == {int}
        with pytest.raises(TypeError):
            DiffPoly(((self.T[0], 0.5),))


@pytest.mark.parametrize("value", (2, 0, Fraction(1, 3)), ids=repr)
def test_constant_hashes_as_the_number_it_equals(value):
    for p in (DiffPoly.const(value), (Q + value) - Q):
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
        assert {value: "found"}[p] == "found"


def _coeff_types(*polys):
    return {type(c) for p in polys for _, c in p.terms}


class TestCoefficientTypes:
    # int and Fraction compare and hash alike, so equality tests cannot see
    # an integral coefficient stored as a Fraction.
    def test_flows_by_both_routes_have_int_coefficients(self):
        pair = flow(11)
        assert _coeff_types(pair.q_t, pair.r_t) == {int}
        pair = flow(1)
        while pair.m < 11:
            pair = recursion.step(pair)
        assert _coeff_types(pair.q_t, pair.r_t) == {int}

    def test_integral_fractions_are_stored_as_int(self):
        p = 3 * Q * R + RX
        assert _coeff_types(DiffPoly.const(Fraction(4, 2))) == {int}
        assert _coeff_types(Fraction(1, 2) * p * 2) == {int}
        assert _coeff_types(Fraction(1, 2) * RX + Fraction(1, 2) * RX) == {int}
        assert _coeff_types(Fraction(1, 2) * Q) == {Fraction}


class TestPolySum:
    """`poly_sum` against a chain of `+` over the same weighted pieces."""

    def test_matches_iterated_addition_randomized(self):
        rng = random.Random(SEED)
        seen = set()
        for _ in range(300):
            pieces = []
            for _ in range(rng.randint(0, 5)):
                weight = rng.choice((
                    1, -1, rng.randint(-3, 3),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                ))
                p = random_poly(rng, allow_atoms=True, allow_scale=True)
                pieces.append((weight, p))
            if pieces and rng.random() < 0.2:
                # The same pieces again with opposite weights: the sum is 0.
                pieces += [(-w, p) for w, p in pieces]
            expected = DiffPoly.zero()
            for w, p in pieces:
                expected = expected + p * w
            got = diffring.poly_sum(pieces)
            assert got == expected
            # The terms promise distinct keys, not an order; compare them
            # sorted, apart from `DiffPoly.__eq__`.
            assert len({k for k, _ in got.terms}) == len(got.terms)
            assert sorted(got.terms) == sorted(expected.terms)
            for _, c in got.terms:
                assert c and type(c) is (int if c.denominator == 1 else Fraction)
            seen.add((
                len(pieces) > 0,
                got.is_zero,
                any(isinstance(w, Fraction) for w, _ in pieces)
                and any(type(c) is int for _, c in got.terms),
            ))
        # Empty inputs, sums that cancel, and Fraction weights whose sums
        # come out integral all occurred.
        assert {(False, True, False), (True, True, False)} <= seen
        assert (True, False, True) in seen


def _reordered(p, rng):
    """p rebuilt from a shuffled copy of its terms, never in the same order."""
    terms = list(p.terms)
    rng.shuffle(terms)
    if len(terms) > 1 and tuple(terms) == p.terms:
        terms.reverse()
    return DiffPoly(tuple(terms))


def _outcome(fn, p):
    """fn(p)'s terms (or each part's terms) sorted, or the error it raised."""
    try:
        out = fn(p)
    except EngineError as err:
        return type(err), str(err)
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(sorted(part.terms) for part in parts)


def _error_messages(run, error, a, b):
    """The messages of the errors run raises on terms a and b in both orders."""
    messages = set()
    for terms in ((a, b), (b, a)):
        with pytest.raises(error) as err:
            run(DiffPoly(terms))
        messages.add(str(err.value))
    return messages


def _groups_reordered(p, rebuilt) -> bool:
    """Whether some class holds two terms of p that rebuilt stores swapped."""
    def groups(x):
        out = {}
        for key, _ in x.terms:
            out.setdefault(diffring._class_of(key), []).append(key)
        return out

    return groups(p) != groups(rebuilt)


class TestTermOrder:
    """A polynomial's value does not depend on the order of its terms.

    `DiffPoly.terms` promises distinct keys, not an order: every reader that
    needs one sorts for itself.  Each check rebuilds a polynomial from its
    terms in another order and compares what the engine makes of both.
    """

    def test_rebuilt_polynomial_is_the_same_value_randomized(self):
        rng = random.Random(SEED)
        reordered_groups = 0
        for _ in range(150):
            # A derivative puts several terms in one class, as `integrate`
            # groups them.
            p = random_poly(rng, allow_atoms=True, allow_scale=True) + d_x(
                random_poly(rng, allow_atoms=True, allow_scale=True)
            )
            rebuilt = _reordered(p, rng)
            assert sorted(rebuilt.terms) == sorted(p.terms)
            assert rebuilt == p and hash(rebuilt) == hash(p)
            assert poly_text(rebuilt) == poly_text(p)
            assert poly_latex(rebuilt) == poly_latex(p)
            assert poly_json(rebuilt) == poly_json(p)
            assert sorted(d_x(rebuilt).terms) == sorted(d_x(p).terms)
            first = _outcome(integrate, p)
            forms = len(diffring._NF_ATOM_CACHE)
            assert _outcome(integrate, rebuilt) == first
            # A class's vector is keyed in one order whatever the input's.
            assert len(diffring._NF_ATOM_CACHE) == forms
            assert _outcome(antiderivative, rebuilt) == _outcome(antiderivative, p)
            reordered_groups += _groups_reordered(p, rebuilt)
        assert reordered_groups >= 10

    def test_odd_scale_error_names_one_term_in_any_order(self):
        # lam^1 from q^2 and lam^3 from q^4: both odd, with different messages.
        (a,), (b,) = (Q ** 2).terms, (Q ** 4).terms
        (message,) = _error_messages(
            lambda p: scale_substitute(p, Fraction(1, 12)), OddScaleResidue, a, b
        )
        assert "odd scale exponent" in message

    def test_closure_cap_error_names_one_class_in_any_order(self, monkeypatch):
        # Two classes whose closure walks both pass the cap.
        q3, r3 = DiffPoly.jet("q", 3), DiffPoly.jet("r", 3)
        (a,), (b,) = (q3 * q3 * r3).terms, (r3 * r3 * q3 * q3).terms
        monkeypatch.setattr(diffring, "_CLOSURE_CAP", 5)

        def cold_integrate(p):
            clear_caches()
            return integrate(p)

        (message,) = _error_messages(cold_integrate, EngineError, a, b)
        assert "diffring._CLOSURE_CAP = 5" in message

    def test_nesting_error_names_the_smallest_remainder_key(self, monkeypatch):
        # integrate's remainder holds r^2*I(q*q[4]) before the smaller key
        # r^2*I(q*r^2); antiderivative names the atom of the smaller one.
        atom = antiderivative(R * R)
        q2 = DiffPoly.jet("q", 2)
        p = Fraction(2, 3) * q2 * q2 * atom + Fraction(3, 2) * Q * R * R * atom
        jets, atoms, _ = min(k for k, _ in integrate(p)[1].terms if k[1])
        monkeypatch.setattr(diffring, "_NESTING_LIMIT", 1)
        with pytest.raises(NestingTooDeep) as err:
            antiderivative(p)
        assert f"atom I({poly_text(DiffPoly.monomial((jets, atoms, 0)))})" in str(err.value)

    @pytest.mark.parametrize("entry", ("antiderivative", "swap_q_r", "prolong_t"))
    def test_nesting_error_names_one_atom_in_any_order(self, entry, monkeypatch):
        # Two terms in two classes, each of which makes an atom 2 deep: a
        # remainder to integrate, or an atom rebuilt after a renaming or
        # along the scaling flow q_t = q, r_t = r.
        inner = antiderivative(Q * R)
        pieces = Q ** 2 * inner, R ** 2 * inner
        run = {
            "antiderivative": antiderivative,
            "swap_q_r": swap_q_r,
            "prolong_t": lambda p: prolong_t(p, Q, R),
        }[entry]
        if entry != "antiderivative":
            pieces = tuple(map(antiderivative, pieces))
        (a,), (b,) = (piece.terms for piece in pieces)
        monkeypatch.setattr(diffring, "_NESTING_LIMIT", 1)
        (message,) = _error_messages(run, NestingTooDeep, a, b)
        assert "would nest 2 deep" in message


class TestDerivative:
    def test_jet_bump(self):
        assert d_x(Q) == QX

    def test_atom_derivative(self):
        assert d_x(antiderivative(Q * R)) == Q * R

    def test_leibniz(self):
        assert d_x(Q ** 2 * R) == 2 * Q * QX * R + Q ** 2 * RX

    def test_scale_constant(self):
        assert d_x(DiffPoly.lam(2) * Q) == DiffPoly.lam(2) * QX

    def test_derivation_randomized(self):
        rng = random.Random(SEED)
        for _ in range(200):
            a = random_poly(rng, allow_atoms=True)
            b = random_poly(rng, allow_atoms=True)
            assert d_x(a * b) == d_x(a) * b + a * d_x(b)

    @pytest.mark.parametrize("order", (-1, True, 1.5))
    def test_order_must_be_a_natural_int(self, order):
        with pytest.raises(ValueError, match="derivative order must be an int >= 0"):
            d_x(Q, order)

    def test_memoized_derivatives_match_sympy(self):
        # An oracle outside the ring: q, r and lam become functions of x and
        # a number, every atom an unevaluated integral, and sympy
        # differentiates.  Each p is differentiated again and again, so the
        # later calls read the memo.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        funcs = {"q": sympy.exp(2 * x) + x, "r": x ** 2 * sympy.exp(-x)}
        lam = sympy.Rational(3, 7)

        def mono(key):
            jets, atoms, scale = key
            v = lam ** scale
            for (sym, order), power in jets:
                v *= sympy.diff(funcs[sym], x, order) ** power
            for akey, power in atoms:
                v *= sympy.Integral(mono(akey), x) ** power
            return v

        def value(p):
            return sympy.Add(*(
                sympy.Rational(c.numerator, c.denominator) * mono(key)
                for key, c in p.terms
            ))

        rng = random.Random(SEED)
        for _ in range(15):
            p = random_poly(rng, allow_atoms=True, allow_scale=True)
            expected = value(p)
            for n in (3, 1, 2, 0):
                got = value(d_x(p, n))
                assert sympy.expand(got - sympy.diff(expected, x, n)) == 0
            assert d_x(p, 2) is d_x(d_x(p))


class TestIntegrate:
    def test_exact_derivative(self):
        assert integrate(2 * Q * QX) == (Q ** 2, DiffPoly.zero())

    def test_product_rule_form(self):
        assert integrate(QX * R + Q * RX) == (Q * R, DiffPoly.zero())

    def test_first_flow_residue_coefficient(self):
        # 2*(qr)_t under the translation flow integrates to 2qr exactly.
        flow_expr = 2 * (QX * R + Q * RX)
        assert integrate(flow_expr) == (2 * Q * R, DiffPoly.zero())

    def test_non_derivative_is_remainder(self):
        assert integrate(Q ** 2) == (DiffPoly.zero(), Q ** 2)

    def test_constant_is_remainder(self):
        c = DiffPoly.const(5)
        assert integrate(c) == (DiffPoly.zero(), c)

    def test_atom_times_own_integrand(self):
        a = antiderivative(Q * R)
        local, rho = integrate(Q * R * a)
        assert rho.is_zero
        assert local == Fraction(1, 2) * a * a

    def test_cross_atom_pair(self):
        a = antiderivative(Q * Q)
        b = antiderivative(Q * R)
        local, rho = integrate(Q * R * a + Q * Q * b)
        assert rho.is_zero
        assert local == a * b

    def test_round_trip_randomized(self):
        rng = random.Random(SEED)
        for _ in range(200):
            p = random_poly(rng, allow_atoms=True)
            local, rho = integrate(p)
            assert d_x(local) + rho == p
            assert integrate(rho) == (DiffPoly.zero(), rho)

    def test_exactness_detection_randomized(self):
        rng = random.Random(SEED)
        for _ in range(200):
            p = random_poly(rng, allow_atoms=True, allow_const=False)
            p = p - DiffPoly.const(constant_term(p))
            local, rho = integrate(d_x(p))
            assert rho.is_zero
            assert local == p

    def test_linearity_randomized(self):
        rng = random.Random(SEED)
        for _ in range(100):
            a = random_poly(rng, allow_atoms=True)
            b = random_poly(rng, allow_atoms=True)
            fa, ra = integrate(a)
            fb, rb = integrate(b)
            fab, rab = integrate(a + b)
            assert fab == fa + fb
            assert rab == ra + rb

    def test_antiderivative_canonical_modulo_exact_randomized(
        self, monkeypatch
    ):
        # The antiderivative is a true linear section of d_x: shifting the
        # input by an exact term shifts the output by exactly that term's
        # constant-free part.  This is what makes atoms produced by
        # independent computations cancel.
        monkeypatch.setattr(diffring, "_NESTING_LIMIT", 4)
        rng = random.Random(SEED)
        for _ in range(100):
            p = random_poly(rng, allow_atoms=True, allow_scale=True)
            h = random_poly(rng, allow_atoms=True, allow_scale=True)
            h = h - constant_part(h)
            lhs = antiderivative(p + d_x(h))
            rhs = antiderivative(p) + h
            assert lhs == rhs

    def test_remainder_canonical_modulo_exact_randomized(self):
        # At the remainder level the same holds whenever the shift carries
        # no bare atom terms (a bare atom's derivative is its integrand,
        # which integrate deliberately leaves to the caller's atom wrap).
        rng = random.Random(SEED)
        checked = 0
        for _ in range(200):
            p = random_poly(rng, allow_atoms=True)
            h = random_poly(rng, allow_atoms=True)
            bare = any(
                not jets and sum(pw for _, pw in atoms) == 1
                for (jets, atoms, _), _ in h.terms
            )
            if bare:
                continue
            checked += 1
            _, rho1 = integrate(p)
            _, rho2 = integrate(p + d_x(h))
            assert rho1 == rho2
        assert checked >= 100


def _partial(p, sym, order):
    """The partial derivative of an atom-free p by the jet variable sym^(order)."""
    d = {}
    for (jets, atoms, scale), c in p.terms:
        for i, (jet, power) in enumerate(jets):
            if jet == (sym, order):
                key = (diffring._drop_one(jets, i), atoms, scale)
                d[key] = d.get(key, 0) + c * power
    return DiffPoly._from_dict(d)


def _euler(p, sym):
    """The variational derivative E_s(p) = sum_k (-d_x)^k dp/ds^(k)."""
    top = max(
        (order for (jets, _, _), _ in p.terms for (s, order), _ in jets if s == sym),
        default=-1,
    )
    out = DiffPoly.zero()
    for k in range(top + 1):
        out = out + (-1) ** k * d_x(_partial(p, sym, k), k)
    return out


def _euler_inputs():
    for n in (1, 3, 5, 7, 9):
        pair = flow(n)
        for p in (pair.q_t, pair.r_t):
            yield p
            yield d_x(p)
        yield R * pair.q_t
    for n in (1, 3, 5, 7):
        yield residue(lax_power(n))
    for n in (1, 3, 5):
        for m in (1, 3, 5):
            yield prolong_flow(residue(lax_power(n)), m)
    rng = random.Random(SEED)
    for _ in range(200):
        yield random_local_poly(rng, allow_scale=True, symbols=("q", "r", "u"))


class TestEulerOperator:
    """Olver's criterion: a local p is d_x(F) + constant exactly when every
    variational derivative E_s(p) vanishes.  It knows nothing of candidates
    or reducers, so it checks the integration engine from outside."""

    def test_euler_operator_kills_total_derivatives(self):
        for n in (3, 5, 7):
            for s in ("q", "r", "u"):
                assert _euler(d_x(flow(n).q_t), s).is_zero
        assert _euler(Q * R, "q") == R
        assert _euler(QX * QX, "q") == -2 * DiffPoly.jet("q", 2)

    def test_remainder_keeps_the_variational_derivative(self):
        exact = inexact = 0
        for p in _euler_inputs():
            assert p.is_local
            local, rho = integrate(p)
            assert d_x(local) + rho == p
            euler = {s: _euler(p, s) for s in ("q", "r", "u")}
            for s in euler:
                assert _euler(rho, s) == euler[s]
            is_exact = all(e.is_zero for e in euler.values())
            assert (rho == constant_part(p)) == is_exact
            exact += is_exact
            inexact += not is_exact
        assert exact > 20 and inexact > 20


class TestAntiderivative:
    def test_irreducible_becomes_atom(self):
        rep = antiderivative(Q ** 2)
        assert rep.atom_part() == rep
        assert poly_text(rep) == "I(q^2)"
        assert d_x(rep) == Q ** 2

    def test_mixed(self):
        rep = antiderivative(2 * Q * QX + Q * R)
        assert rep == Q ** 2 + antiderivative(Q * R)
        assert d_x(rep) == 2 * Q * QX + Q * R

    def test_exact_derivative_is_its_local_part(self):
        for p in (Q ** 2, 3 * Q * R * QX, Fraction(1, 2) * R ** 3):
            rep = antiderivative(d_x(p))
            assert rep == p and rep.is_local
            assert _coeff_types(rep) == _coeff_types(p)

    def test_atom_invariants(self):
        # An atom is the key of its integrand: one monic, lam-free, reduced
        # monomial, with the coefficient and lam power kept outside.
        atom = antiderivative(Q ** 2)
        ((key, c),) = atom.terms
        assert c == 1 and key[0] == () and key[2] == 0
        ((akey, power),) = key[1]
        assert power == 1 and DiffPoly.monomial(akey) == Q ** 2
        assert diffring._is_reduced_mono(akey)
        assert diffring._atom_depth(akey) == 1
        assert antiderivative(Q * Q) == atom
        assert antiderivative(2 * Q ** 2) == 2 * atom
        assert antiderivative(DiffPoly.lam() * Q ** 2) == DiffPoly.lam() * atom
        assert antiderivative(2 * Q * QX) == Q ** 2

    def test_atom_values_round_trip(self):
        inner = antiderivative(Q * R)
        nested = antiderivative(Q ** 2 * inner)
        values = [
            antiderivative(Q ** 2),
            nested,
            3 * QX * inner ** 2 - Fraction(1, 2) * nested,
            DiffPoly.lam(2) * nested * inner + R * antiderivative(R * R),
        ]
        assert poly_text(nested) == "I(q^2*I(q*r))"
        ((akey, _),) = _single_key(nested)[1]
        assert diffring._atom_depth(akey) == 2
        for p in values:
            assert parse_poly(poly_text(p)) == p
            assert poly_from_json(poly_json(p)) == p

    def test_nesting_limit(self, monkeypatch):
        inner = antiderivative(Q * R)
        # q^2 * I(qr) is irreducible, so its antiderivative nests once more.
        nested = antiderivative(Q ** 2 * inner)
        assert nested.atom_part() == nested
        ((akey, _),) = _single_key(nested)[1]
        assert diffring._atom_depth(akey) == 2
        monkeypatch.setattr(diffring, "_NESTING_LIMIT", 1)
        with pytest.raises(NestingTooDeep):
            antiderivative(Q ** 2 * inner)

    def test_derivative_inverts_antiderivative_randomized(self, monkeypatch):
        monkeypatch.setattr(diffring, "_NESTING_LIMIT", 3)
        rng = random.Random(SEED)
        for _ in range(100):
            p = random_poly(rng, allow_atoms=True)
            assert d_x(antiderivative(p)) == p


class TestProlong:
    def test_translation_flow(self):
        assert prolong_t(Q, QX, RX) == QX
        assert prolong_t(Q * R, QX, RX) == QX * R + Q * RX

    def test_third_flow(self):
        f3 = P("q[3] + 9*q*r*q' + 3*q^2*r'")
        g3 = P("r[3] + 9*q*r*r' + 3*r^2*q'")
        assert prolong_t(Q, f3, g3) == f3

    def test_atom_rule(self):
        a = antiderivative(Q * R)
        d_t = prolong_t(a, QX, RX)
        # d/dt I(qr) under translation is the antiderivative of (qr)_x.
        assert d_t == Q * R

    def test_commutes_with_dx_randomized(self):
        rng = random.Random(SEED)
        f3 = P("q[3] + 9*q*r*q' + 3*q^2*r'")
        g3 = P("r[3] + 9*q*r*r' + 3*r^2*q'")
        for flow in ((QX, RX), (f3, g3)):
            for _ in range(100):
                p = random_poly(rng, allow_atoms=True)
                lhs = prolong_t(d_x(p), *flow)
                rhs = d_x(prolong_t(p, *flow))
                assert lhs == rhs


class TestSubstitutions:
    def test_basic(self):
        assert substitute_r_to_q(R) == Q
        assert substitute_r_to_q(P("q[3] + 9*q*r*q' + 3*q^2*r'")) == P(
            "q[3] + 12*q^2*q'"
        )

    def test_fifth_flow_reduction(self):
        f5 = P(
            "q[5]+15*q*r*q[3]+30*r*q'*q''+25*q*r'*q''+25*q*q'*r''"
            "+80*q^2*r^2*q'+20*q'*r'*q'+40*r*q^3*r'+5*q^2*r[3]"
        )
        assert substitute_r_to_q(f5) == P(
            "q[5]+20*q^2*q[3]+80*q*q'*q''+120*q^4*q'+20*q'^3"
        )

    def test_atom_resolution(self):
        # I(q*r') resolves to a local expression once r becomes q.
        atom = antiderivative(Q * RX)
        assert atom.atom_part() == atom
        assert substitute_r_to_q(atom) == Fraction(1, 2) * Q ** 2

    def test_swap_is_involution_randomized(self):
        rng = random.Random(SEED)
        for _ in range(100):
            p = random_poly(rng, allow_atoms=True)
            assert swap_q_r(swap_q_r(p)) == p

    def test_atoms_stay_canonical_randomized(self):
        # Every atom a substitution leaves behind, nested ones included, is
        # one that antiderivative makes: its integrand is lam-free and reduced.
        rng = random.Random(SEED)
        seen = 0
        for _ in range(60):
            p = random_poly(rng, allow_atoms=True)
            qu = _random_qu_with_atoms(rng)
            renamed = diffring._rename_q_to_u(qu)
            for out in (substitute_r_to_q(p), swap_q_r(p), renamed):
                seen += _assert_atoms_canonical(out)
        assert seen > 50


def _random_qu_with_atoms(rng):
    """A polynomial in q and u, with atoms (some nested) whose integrands
    mix q and u; no r, so that scaling applies."""
    out = random_local_poly(rng, symbols=("q", "u"), max_terms=2)
    for _ in range(rng.randint(1, 2)):
        integrand = random_local_poly(
            rng, symbols=("q", "u"), max_terms=2, allow_const=False
        )
        if rng.random() < 0.3:
            integrand = DiffPoly.jet(rng.choice("qu")) * antiderivative(
                random_local_poly(rng, symbols=("q", "u"), max_terms=1,
                                  allow_const=False)
            )
        cofactor = random_local_poly(rng, symbols=("q", "u"), max_terms=1)
        out = out + cofactor * antiderivative(integrand)
    return out


def _assert_atoms_canonical(p) -> int:
    """Check every atom key in p, recursively, as antiderivative makes it;
    count them."""
    count = 0
    for (_, atoms, _), _ in p.terms:
        for akey, _ in atoms:
            assert akey[2] == 0 and diffring._is_reduced_mono(akey)
            count += 1 + _assert_atoms_canonical(DiffPoly.monomial(akey))
    return count


class TestScale:
    def test_third_order_flow(self):
        out = scale_substitute(P("q[3] + 12*q^2*q'"), Fraction(1, 12))
        assert out == P("u[3] + u^2*u'")

    def test_fifth_order_flow(self):
        out = scale_substitute(
            P("q[5]+20*q^2*q[3]+80*q*q'*q''+120*q^4*q'+20*q'^3"),
            Fraction(1, 12),
        )
        assert out == P(
            "u[5] + 5/3*u^2*u[3] + 20/3*u*u'*u'' + 5/6*u^4*u' + 5/3*u'^3"
        )

    def test_degree_one(self):
        assert scale_substitute(Q, Fraction(1, 12)) == DiffPoly.jet("u")

    def test_odd_residue_rejected(self):
        with pytest.raises(OddScaleResidue):
            scale_substitute(Q ** 2, Fraction(1, 12))

    def test_negative_scale_power_with_integer_lambda_sq(self):
        # lam^-4 q -> lam^-4 u after dividing by lam, so (lam^2)^-2 = 1/16.
        out = scale_substitute(DiffPoly.lam(-4) * Q, 4)
        assert out == Fraction(1, 16) * DiffPoly.jet("u")

    def test_r_rejected(self):
        with pytest.raises(OddScaleResidue):
            scale_substitute(Q * R * R, Fraction(1, 12))

    def test_renamed_atom_is_canonical(self):
        # I(q*u') is an atom, but once q becomes u its integrand u*u' is
        # exact: the scaled form is local.
        atom = antiderivative(Q * DiffPoly.jet("u", 1))
        assert atom.atom_part() == atom
        u = DiffPoly.jet("u")
        assert scale_substitute(atom, Fraction(1, 12)) == Fraction(1, 2) * u * u

    @pytest.fixture
    def atom_then_no_integration(self, monkeypatch):
        """I(q*u'), after which antiderivative refuses to run."""
        atom = antiderivative(Q * DiffPoly.jet("u", 1))

        def refuse(*args, **kwargs):
            raise AssertionError("antiderivative ran before the scaling check")

        monkeypatch.setattr(diffring, "antiderivative", refuse)
        return atom

    def test_r_rejected_before_integration(self, atom_then_no_integration):
        # The r jet sorts after the atom term, but it is found before the
        # atom's integrand is renamed and integrated again.
        with pytest.raises(OddScaleResidue):
            scale_substitute(atom_then_no_integration + R, 4)

    def test_odd_power_rejected_before_integration(self, atom_then_no_integration):
        # q*I(q*u') is left with lam^(1 + 1 - 1): odd, found before renaming.
        with pytest.raises(OddScaleResidue):
            scale_substitute(Q * atom_then_no_integration, 4)

    def test_float_refused_on_empty_input(self):
        with pytest.raises(TypeError):
            scale_substitute(DiffPoly.zero(), 1 / 12)

    @pytest.mark.parametrize("lambda_sq", (0, Fraction(0), True, False), ids=repr)
    def test_lambda_sq_is_a_nonzero_rational(
        self, atom_then_no_integration, lambda_sq
    ):
        # Zero has no negative powers, and a bool is not read as 0 or 1;
        # both are refused before any term is renamed.
        for p in (P("lam^-4*q"), Q, atom_then_no_integration, DiffPoly.zero()):
            with pytest.raises(ValueError, match="lambda_sq"):
                scale_substitute(p, lambda_sq)


def _reference_proper_divisors(key):
    """Every nonempty scale-free sub-monomial of m except m itself."""
    jets, atoms, scale = key
    factors = [(("j", f), p) for f, p in jets] + [
        (("a", f), p) for f, p in atoms
    ]
    choices = [[]]
    for (kind, f), p in factors:
        choices = [
            base + [((kind, f), e)] for base in choices for e in range(p + 1)
        ]
    out = []
    for combo in choices:
        jsub = tuple((f, e) for (kind, f), e in combo if e and kind == "j")
        asub = tuple((f, e) for (kind, f), e in combo if e and kind == "a")
        if not (jsub or asub):
            continue
        if jsub == jets and asub == atoms:
            continue
        out.append((jsub, asub, 0))
    return out


def _order_multisets(count, total):
    """Nondecreasing tuples of `count` nonnegative integers summing to `total`."""
    if count == 0:
        return [()] if total == 0 else []
    if count == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total // count + 1)
        for rest in _order_multisets(count - 1, total - first)
        if rest[0] >= first
    ]


def _component_jets(symdeg, weight):
    """Every sorted jet-factor tuple with these symbol degrees and weight."""
    if not symdeg:
        return [()] if weight == 0 else []
    (sym, deg), rest = symdeg[0], symdeg[1:]
    out = []
    for here in range(weight + 1):
        for orders in _order_multisets(deg, here):
            head = {}
            for order in orders:
                head[(sym, order)] = head.get((sym, order), 0) + 1
            for tail in _component_jets(rest, weight - here):
                out.append(tuple(sorted(tuple(head.items()) + tail)))
    return out


# Symbol-degree patterns of the local components the candidate tests cover.
_SYMDEGS = (
    (("q", 1),),
    (("q", 2),),
    (("q", 1), ("r", 1)),
    (("q", 2), ("r", 1)),
    (("q", 2), ("r", 2)),
    (("u", 3),),
    (("q", 3), ("r", 2)),
)


def _single_key(p):
    ((key, _),) = p.terms
    return key


def _class_start(symdeg, weight, atoms, scale):
    """The member of a class that puts every derivative on its first factor."""
    counts = {(sym, 0): deg for sym, deg in symdeg}
    if symdeg:
        head = symdeg[0][0]
        counts[(head, 0)] -= 1
        counts[(head, weight)] = counts.get((head, weight), 0) + 1
    jets = tuple(sorted((k, p) for k, p in counts.items() if p))
    return (jets, atoms, scale)


class TestCandidates:
    def test_wrap_divisors_match_reference(self):
        a = antiderivative(Q * R)
        b = antiderivative(Q * Q)
        keys = [
            _single_key(QX * R * a * b),  # two distinct atoms
            _single_key(Q * RX * a ** 2),  # an atom with power 2
            _single_key(Q ** 2 * RX * a ** 2 * b),
            _single_key(a * b),  # empty jets
            _single_key(a ** 2),
            _single_key(a),
            _single_key(QX * R * a * b * DiffPoly.lam(2)),  # nonzero scale
        ]
        for key in keys:
            reference = _reference_proper_divisors(key)
            expected = [nu for nu in reference if nu[0] == key[0]]
            assert diffring._wrap_divisors(key) == expected

    def test_local_reducer_matches_component_enumeration(self):
        # The closure walk from one member of a local component yields the
        # same candidates as enumerating the component one order lower.
        for symdeg in _SYMDEGS:
            for weight in range(7):
                for scale in (0, 2, -1):
                    reference = [
                        (jets, (), scale)
                        for jets in _component_jets(symdeg, weight - 1)
                    ]
                    reducer = diffring._local_reducer(symdeg, weight, scale, ())
                    start = _class_start(symdeg, weight, (), scale)
                    expected = diffring._Reducer(reference, start)
                    assert reducer.keys == expected.keys
                    assert reducer.pivots == expected.pivots
                    assert len(reducer.pivots) == len(reference)

    def test_cached_local_irreducibility_matches_reducer(self):
        symdegs = ((("q", 2),), (("q", 1), ("r", 1)), (("q", 2), ("r", 1)))
        seen = set()
        for symdeg in symdegs:
            for weight in range(5):
                for scale in (0, 2):
                    reducer = diffring._local_reducer(symdeg, weight, scale, ())
                    for jets in _component_jets(symdeg, weight):
                        key = (jets, (), scale)
                        pre, _ = _reduce(reducer, {key: Fraction(1)})
                        expected = weight < 1 or not pre
                        assert diffring._is_reduced_mono(key) == expected
                        seen.add(expected)
        assert seen == {True, False}

    def test_every_member_walks_to_the_shared_closure(self):
        # Each member of a class reaches the candidates of the member
        # `_local_reducer` starts from, so one reducer serves them all.
        atom_sets = (
            (),
            _single_key(antiderivative(Q * R))[1],
            _single_key(antiderivative(Q * Q) * antiderivative(Q * R))[1],
        )
        members = 0
        for atoms in atom_sets:
            for symdeg in _SYMDEGS:
                for weight in range(7):
                    for scale in (0, 2, -1):
                        start = _class_start(symdeg, weight, atoms, scale)
                        shared = diffring._closure_candidates(start)
                        for jets in _component_jets(symdeg, weight):
                            key = (jets, atoms, scale)
                            # A walk that reuses no recorded class.
                            diffring._CLASS_CLOSURES.clear()
                            assert diffring._closure_candidates(key) == shared
                            members += 1
        assert members > 2700

    def test_cached_keys_walk_to_their_class_closure(self):
        # The keys the step chain to t_9 really meets, atoms included.
        cached = _fill_atom_cache(9)
        classes = {}
        for key in cached:
            jets, atoms, scale = key
            symdeg = _symdeg(jets)
            cls = (symdeg, diffring._jet_weight(jets), atoms, scale)
            classes.setdefault(cls, []).append(key)
        atom_classes = [cls for cls in classes if cls[2]]
        assert len(atom_classes) > 100
        for cls, keys in classes.items():
            shared = diffring._closure_candidates(_class_start(*cls))
            for key in keys:
                diffring._CLASS_CLOSURES.clear()
                assert diffring._closure_candidates(key) == shared

    def test_walks_do_not_depend_on_the_hash_seed(self):
        # A walk can finish other classes on its way (through
        # `_is_reduced_mono`), so the order it meets candidates in decides
        # how much work it does; that order must not follow string hashes.
        # The paper's matrix sends the chain through atom classes.
        script = (
            "from cckp import diffring, hierarchy, recursion\n"
            "paper = recursion.build_matrix()\n"
            "pair = hierarchy.flow(1)\n"
            "while pair.m < 7:\n"
            "    pair = recursion.step(pair, paper)\n"
            "assert any(k[1] for w in diffring._NF_ATOM_CACHE for k, _ in w)\n"
            "print(tuple(diffring._atom_depth.cache_info()),"
            " tuple(diffring._local_reducer.cache_info()),"
            " len(diffring._NF_ATOM_CACHE))\n"
        )
        src = str(Path(cckp.__file__).resolve().parent.parent)
        outputs = []
        for seed in (0, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] != ""

    def test_shift_order_matches_merge_of_drop(self):
        rng = random.Random(SEED)
        for _ in range(300):
            jets = {}
            for _ in range(rng.randint(1, 5)):
                jet = (rng.choice("qru"), rng.randint(0, 5))
                jets[jet] = jets.get(jet, 0) + rng.randint(1, 3)
            jets = tuple(sorted(jets.items()))
            for i, ((sym, order), _) in enumerate(jets):
                for delta in (1, -1, rng.randint(2, 9)):
                    if order + delta < 0:
                        continue
                    expected = _reference_merge_factors(
                        diffring._drop_one(jets, i), (((sym, order + delta), 1),)
                    )
                    assert diffring._shift_order(jets, i, delta) == expected


def _reference_merge_factors(a, b):
    """The product of two sorted factor tuples by a dict and a sort."""
    d = dict(a)
    for k, p in b:
        d[k] = d.get(k, 0) + p
    return tuple(sorted((k, p) for k, p in d.items() if p))


def _reference_shift_order(jets, i, delta):
    """Drop one power of factor i, then bisect the shifted jet back in."""
    (sym, order), _ = jets[i]
    rest = diffring._drop_one(jets, i)
    jet = (sym, order + delta)
    j = bisect.bisect_left(rest, (jet,))
    if j < len(rest) and rest[j][0] == jet:
        return rest[:j] + ((jet, rest[j][1] + 1),) + rest[j + 1:]
    return rest[:j] + ((jet, 1),) + rest[j:]


def _random_factors(rng, pool, most):
    """A sorted factor tuple of up to `most` distinct factors from pool."""
    picked = rng.sample(pool, rng.randint(0, min(most, len(pool))))
    return tuple(sorted((f, rng.randint(1, 3)) for f in picked))


_JET_POOL = [(sym, order) for sym in "qru" for order in range(4)]


def _atom_pool():
    a = _single_key(antiderivative(Q * R))[1][0][0]
    b = _single_key(antiderivative(Q * Q))[1][0][0]
    nested = _single_key(antiderivative(R * R * antiderivative(Q * Q)))[1][0][0]
    return [a, b, nested, (((("r", 0), 2),), (), 0)]


class TestKeyKernels:
    """The product, shift and class kernels against a plain dict-and-sort
    merge, a drop-then-bisect shift and a dict-and-sort degree count."""

    def test_merge_factors_and_key_mul_match_the_reference(self):
        rng = random.Random(SEED)
        atom_pool = _atom_pool()
        shapes = set()
        for _ in range(2000):
            pool, most = rng.choice(((_JET_POOL, 4), (atom_pool, 3)))
            a = _random_factors(rng, pool, most)
            b = _random_factors(rng, pool, most)
            shared = bool({f for f, _ in a} & {f for f, _ in b})
            shapes.add((min(len(a), 2), min(len(b), 2), shared))
            assert diffring._merge_factors(a, b) == _reference_merge_factors(a, b)
            ja, jb = (_random_factors(rng, _JET_POOL, 4) for _ in "ab")
            sa, sb = rng.randint(-2, 2), rng.randint(-2, 2)
            assert diffring._key_mul((ja, a, sa), (jb, b, sb)) == (
                _reference_merge_factors(ja, jb),
                _reference_merge_factors(a, b),
                sa + sb,
            )
        # Empty sides, one-factor sides (alone and against longer tuples)
        # and shared factors all occurred.
        expected = (
            (0, 0, False),
            (0, 2, False),
            (1, 1, True),
            (1, 2, True),
            (2, 1, False),
            (2, 2, True),
        )
        assert set(expected) <= shapes

    def test_shift_order_matches_the_reference(self):
        rng = random.Random(SEED)
        cases = set()
        for _ in range(1000):
            # One or two symbols over few orders, so neighbours often exist.
            syms = rng.choice(("q", "qr"))
            pool = [(sym, order) for sym in syms for order in range(4)]
            jets = _random_factors(rng, pool, 5)
            if not jets:
                continue
            for i, ((sym, order), power) in enumerate(jets):
                for delta in (1, -1, rng.randint(2, 5), -rng.randint(2, 3)):
                    if order + delta < 0:
                        continue
                    got = diffring._shift_order(jets, i, delta)
                    assert got == _reference_shift_order(jets, i, delta)
                    j = i + delta
                    target = (sym, order + delta)
                    neighbour = 0 <= j < len(jets) and jets[j][0] == target
                    end = i in (0, len(jets) - 1)
                    step = delta if abs(delta) == 1 else 2
                    cases.add((step, power > 1, neighbour, end))
        for delta in (1, -1):
            for power in (False, True):
                for neighbour in (False, True):
                    for end in (False, True):
                        assert (delta, power, neighbour, end) in cases
        assert any(case[0] == 2 for case in cases)

    def test_class_of_matches_degrees_and_weight(self):
        rng = random.Random(SEED)
        atom_pool = _atom_pool()
        for _ in range(500):
            jets = _random_factors(rng, _JET_POOL, 5)
            atoms = _random_factors(rng, atom_pool, 2)
            scale = rng.randint(-2, 2)
            weight = sum(order * p for (_, order), p in jets)
            assert diffring._class_of((jets, atoms, scale)) == (
                _symdeg(jets), weight, scale, atoms
            )

    def test_mon_priority_matches_the_two_pass_reference(self):
        rng = random.Random(SEED)
        atom_pool = _atom_pool()
        for _ in range(500):
            jets = _random_factors(rng, _JET_POOL, 5)
            atoms = _random_factors(rng, atom_pool, 2)
            key = (jets, atoms, rng.randint(-2, 2))
            assert diffring._mon_priority(key) == (
                diffring._key_atom_depths(key),
                atoms,
                diffring._jet_degree(jets),
                diffring._jet_weight(jets),
                jets,
                key[2],
            )


def _keyed_rows(reducer):
    """The reducer's rows as (pivot, lead, img, pre), keyed by monomial.

    Each rank is mapped back through the reducer's key table.
    """
    keys = reducer.keys
    for pivot, lead, img_r, img_c, pre_r, pre_c in reducer.pivots:
        assert len(set(img_r)) == len(img_r) == len(img_c)
        assert len(set(pre_r)) == len(pre_r) == len(pre_c)
        img = {keys[r]: c for r, c in zip(img_r, img_c)}
        pre = {keys[r]: c for r, c in zip(pre_r, pre_c)}
        yield keys[pivot], lead, img, pre


def _check_reducer_rows(reducer):
    assert reducer.pivots
    for pivot, lead, img, pre in _keyed_rows(reducer):
        coeffs = list(img.values()) + list(pre.values())
        assert {type(c) for c in coeffs} == {int}
        assert math.gcd(*coeffs) == 1
        assert lead == img[pivot] > 0
        assert max(img, key=diffring._mon_priority) == pivot
        assert d_x(DiffPoly._from_dict(pre)) == DiffPoly._from_dict(img)


class TestReducerRows:
    def test_local_rows_are_integral_and_primitive(self):
        _check_reducer_rows(diffring._local_reducer((("q", 2), ("r", 1)), 6, 0, ()))

    def test_atom_rows_are_integral_and_primitive(self):
        atoms = _single_key(antiderivative(Q * R))[1]
        reducer = diffring._local_reducer((("q", 1), ("r", 1)), 3, 0, atoms)
        _check_reducer_rows(reducer)

    def test_reduce_returns_int_where_integral(self):
        reducer = diffring._local_reducer((("q", 1), ("r", 1)), 2, 0, ())
        key = (((("q", 2), 1), (("r", 0), 1)), (), 0)
        for c in (1, Fraction(4, 2), Fraction(1, 3)):
            pre, res = _reduce(reducer, {key: c})
            whole = c * DiffPoly.monomial(key)
            assert d_x(DiffPoly._from_dict(pre)) + DiffPoly._from_dict(res) == whole
            expected = {int} if Fraction(c).denominator == 1 else {Fraction}
            assert {type(v) for v in pre.values()} == expected


def _reference_grouped_integrate(p):
    """The grouped local path: one vector reduction per local component,
    against the component enumerated one order lower."""
    groups = {}
    for key, coeff in p.terms:
        jets, _, scale = key
        weight = diffring._jet_weight(jets)
        groups.setdefault((_symdeg(jets), weight, scale), {})[key] = coeff
    f_total = {}
    rho_total = {}
    for (symdeg, weight, scale), vec in groups.items():
        lower = _component_jets(symdeg, weight - 1)
        candidates = [(jets, (), scale) for jets in lower]
        reducer = diffring._Reducer(candidates, next(iter(vec)))
        pre, res = _reduce(reducer, vec)
        diffring._addto(f_total, pre.items())
        diffring._addto(rho_total, res.items())
    return DiffPoly._from_dict(f_total), DiffPoly._from_dict(rho_total)


class TestLocalNormalForms:
    def test_per_monomial_split_matches_grouped_reduction(self):
        inputs = []
        for n in (1, 3, 5, 7, 9):
            pair = flow(n)
            for p in (pair.q_t, pair.r_t):
                inputs += [p, d_x(p)]
            inputs.append(R * pair.q_t)
        rng = random.Random(SEED)
        inputs += [
            random_local_poly(rng, allow_scale=True, symbols=("q", "r", "u"))
            for _ in range(200)
        ]
        for p in inputs:
            assert integrate(p) == _reference_grouped_integrate(p)


class TestMemoTables:
    def test_failed_closure_leaves_no_placeholder(self, monkeypatch):
        a = antiderivative(Q * R)
        p = QX * R * a
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "_CLOSURE_CAP", 1)
            with pytest.raises(EngineError):
                integrate(p)
            # A walk that trips the cap records no class closure.
            failed = diffring._class_of(_single_key(p))
            assert failed not in diffring._CLASS_CLOSURES
            assert all(
                len(seen) <= 1 for _, seen in diffring._CLASS_CLOSURES.values()
            )
        local, rho = integrate(p)
        assert local == Q * R * a
        assert d_x(local) + rho == p

    def test_cap_error_names_the_closure(self, monkeypatch):
        p = DiffPoly.jet("q", 2) * RX
        clear_caches()
        before = integrate(p)
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "_CLOSURE_CAP", 2)
            with pytest.raises(EngineError) as err:
                integrate(p)
        # The walk over a local component starts from the member that puts
        # every derivative on one factor.
        message = str(err.value)
        assert poly_text(DiffPoly.jet("q", 3) * R) in message
        assert "diffring._CLOSURE_CAP = 2" in message
        assert int(re.search(r"reached (\d+) monomials", message)[1]) > 2
        assert diffring._local_reducer.cache_info().currsize == 0
        assert integrate(p) == before

    def test_elimination_cap_names_the_closure(self, monkeypatch):
        p = DiffPoly.jet("q", 2) * RX
        clear_caches()
        before = integrate(p)
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "_ELIMINATION_CAP", 2)
            with pytest.raises(EngineError) as err:
                integrate(p)
        # The build names its class start, like the closure walk.
        message = str(err.value)
        assert poly_text(DiffPoly.jet("q", 3) * R) in message
        assert "diffring._ELIMINATION_CAP = 2" in message
        assert int(re.search(r"reached (\d+) row visits", message)[1]) > 2
        # A tripped build stores no reducer and no normal form.
        assert not diffring._REDUCER_CACHE
        assert diffring._local_reducer.cache_info().currsize == 0
        assert _single_key(p) not in diffring._NF_ATOM_CACHE
        assert integrate(p) == before

    def test_nesting_limit_names_the_constant(self, monkeypatch):
        p = Q ** 2 * antiderivative(Q * R)
        clear_caches()
        before = antiderivative(p)
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "_NESTING_LIMIT", 1)
            with pytest.raises(NestingTooDeep) as err:
                antiderivative(p)
        message = str(err.value)
        assert "I(q^2*I(q*r))" in message
        assert "would nest 2 deep" in message
        assert "diffring._NESTING_LIMIT = 1" in message
        # A tripped limit leaves no state that changes the next answer.
        assert antiderivative(p) == before

    def test_reentered_build_raises_and_leaves_no_state(self, monkeypatch):
        def reentering(reducer, work):
            # A build that asks for its own normal form.
            return diffring._form(tuple(work.items()))

        # A lone monomial and a group of one class, each its own vector.
        for p in (QX * R * antiderivative(Q * R), _FRACTION_GROUP):
            clear_caches()
            before = integrate(p)
            clear_caches()
            with monkeypatch.context() as m:
                m.setattr(diffring._Reducer, "split", reentering)
                with pytest.raises(EngineError, match="depends on itself"):
                    integrate(p)
            assert not diffring._NF_ATOM_CACHE
            assert not diffring._NF_ATOM_BUILDING
            assert integrate(p) == before

    def test_clear_caches_empties_every_table(self):
        p = Q * R * antiderivative(Q * R) + QX * R * antiderivative(Q * Q)
        before = integrate(p)
        scale_substitute(Q * antiderivative(Q * Q), Fraction(1, 12))
        integrate(QX * RX + Q * DiffPoly.jet("r", 2))
        assert any(len(work) > 1 for work in diffring._NF_ATOM_CACHE)
        filled = memo_sizes("cckp.diffring")
        assert {
            f"cckp.diffring.{name}"
            for name in (
                "_NF_ATOM_CACHE", "_REDUCER_CACHE", "_CLASS_CLOSURES",
                "_INTERNED", "_local_reducer", "_atom_depth",
            )
        } <= {label for label, size in filled.items() if size}
        clear_caches()
        assert set(memo_sizes("cckp.diffring").values()) == {0}
        assert integrate(p) == before


def _reference_per_monomial_integrate(p):
    """The per-monomial split: each key's own form, summed over one
    common denominator and divided once."""
    forms = [(c, _mono_form(key)) for key, c in p.terms]
    den = 1
    for c, (d, _, _) in forms:
        den = math.lcm(den, d * Fraction(c).denominator)
    f_total = {}
    rho_total = {}
    for c, (d, pre, res) in forms:
        c = Fraction(c)
        c = c.numerator * (den // (d * c.denominator))
        diffring._addto(f_total, pre, c)
        diffring._addto(rho_total, res, c)
    return (
        DiffPoly._from_dict(diffring._divided(f_total, den)),
        DiffPoly._from_dict(diffring._divided(rho_total, den)),
    )


def _class_sizes(p):
    sizes = {}
    for key, _ in p.terms:
        cls = diffring._class_of(key)
        sizes[cls] = sizes.get(cls, 0) + 1
    return sorted(sizes.values())


_Q2 = DiffPoly.jet("q", 2)
_R2 = DiffPoly.jet("r", 2)
# one class, Fraction coefficients
_FRACTION_GROUP = (
    Fraction(1, 3) * QX * RX - Fraction(2, 5) * Q * _R2 + Fraction(7, 2) * _Q2 * R
)
# one class whose members are all reduced, so its pre is empty
_REDUCED_GROUP = (
    2 * Q * _Q2 * R * R - Fraction(3, 4) * Q * Q * R * _R2 + Q * QX * R * RX
)
# lone terms and larger groups, local and atom-bearing
_MIXED_GROUPS = (
    QX * RX + Q * _R2 + Fraction(1, 6) * Q * R + 5
    + QX * R * antiderivative(Q * R)
    - Fraction(2, 3) * Q * RX * antiderivative(Q * R)
    + Q * Q * R * antiderivative(Q * Q)
)


class TestGroupedIntegrate:
    def test_step_chain_integrands_match_the_per_monomial_sum(self, monkeypatch):
        seen = []
        plain = diffring.integrate

        def recording(p):
            seen.append(p)
            return plain(p)

        cckp.clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "integrate", recording)
            # The paper's matrix, whose payloads send the chain through
            # atom classes; `step`'s default form meets none.
            paper = recursion.build_matrix()
            pair = flow(1)
            while pair.m < 9:
                pair = recursion.step(pair, paper)
        assert len(seen) > 80
        assert sum(1 for p in seen if _class_sizes(p)[-1:] > [1]) > 40
        clear_caches()
        got = [integrate(p) for p in seen]
        for p, (f, rho) in zip(seen, got):
            assert (f, rho) == _reference_per_monomial_integrate(p)
            assert all(diffring._is_reduced_mono(key) for key, _ in rho.terms)

    @pytest.mark.parametrize(
        "p",
        (_FRACTION_GROUP, _REDUCED_GROUP, _MIXED_GROUPS),
        ids=("fractions", "empty-pre", "mixed"),
    )
    def test_hand_made_groups_match_the_per_monomial_sum(self, p):
        clear_caches()
        f, rho = integrate(p)
        assert _class_sizes(p)[-1] > 1
        assert (f, rho) == _reference_per_monomial_integrate(p)
        assert d_x(f) + rho == p
        assert integrate(rho) == (DiffPoly.zero(), rho)

    def test_group_of_reduced_members_is_its_own_remainder(self):
        clear_caches()
        assert integrate(_REDUCED_GROUP) == (DiffPoly.zero(), _REDUCED_GROUP)

    def test_repeated_call_makes_no_split(self, monkeypatch):
        p = R * d_x(flow(5).q_t) + QX * R * antiderivative(Q * Q) + Q * RX
        clear_caches()
        first = integrate(p)
        assert any(len(work) > 1 for work in diffring._NF_ATOM_CACHE)
        calls = []
        split = diffring._Reducer.split

        def counting(self, *args):
            calls.append(args)
            return split(self, *args)

        monkeypatch.setattr(diffring._Reducer, "split", counting)
        assert integrate(p) == first
        assert not calls

    def test_tripped_group_build_stores_nothing(self, monkeypatch):
        p = Fraction(1, 2) * QX * RX + Q * _R2 - 3 * _Q2 * R
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(diffring, "_ELIMINATION_CAP", 0)
            with pytest.raises(EngineError):
                integrate(p)
        assert not diffring._NF_ATOM_CACHE
        assert not diffring._REDUCER_CACHE
        got = integrate(p)
        clear_caches()
        assert got == integrate(p)

    def test_multiple_of_a_group_reuses_its_form(self, monkeypatch):
        # A class vector is stored with content 1 and a positive first
        # coefficient, so a multiple of a group meets the group's form.
        g = _FRACTION_GROUP
        assert _class_sizes(g) == [3]
        clear_caches()
        f, rho = integrate(g)
        size = len(diffring._NF_ATOM_CACHE)
        calls = []
        split = diffring._Reducer.split

        def counting(self, *args):
            calls.append(args)
            return split(self, *args)

        monkeypatch.setattr(diffring._Reducer, "split", counting)
        for c in (2, -3, Fraction(5, 7)):
            assert integrate(c * g) == (c * f, c * rho)
        assert len(diffring._NF_ATOM_CACHE) == size
        assert not calls


def _reference_split_atom_mono(key):
    """The per-monomial loop `_nf_atom` was built on before `_split`."""
    reducer = diffring._Reducer(_reference_closure(key)[0], key)
    pre, res = _reduce(reducer, {key: Fraction(1)})
    if key in res:
        return DiffPoly.zero(), DiffPoly(((key, Fraction(1)),))
    f_total = dict(pre)
    rho_total = {}
    for mono, coeff in res.items():
        f_part, rho_part = _reference_nf_any(mono)
        for total, part in ((f_total, f_part), (rho_total, rho_part)):
            for k, c in part.terms:
                nc = total.get(k, 0) + coeff * c
                if nc:
                    total[k] = nc
                elif k in total:
                    del total[k]
    return DiffPoly._from_dict(f_total), DiffPoly._from_dict(rho_total)


def _reference_nf_any(key):
    jets, atoms, scale = key
    if atoms:
        return _nf_atom(key)
    weight = diffring._jet_weight(jets)
    if weight < 1:
        return DiffPoly.zero(), DiffPoly(((key, Fraction(1)),))
    reducer = diffring._local_reducer(_symdeg(jets), weight, scale, ())
    pre, res = _reduce(reducer, {key: Fraction(1)})
    return DiffPoly._from_dict(pre), DiffPoly._from_dict(res)


def _fill_atom_cache(top):
    """Clear every memo table, run the step chain from t_1 to t_top through
    the paper's matrix, whose payloads carry atoms, then give every monomial
    of a grouped split its own normal form.  Returns the monomials' forms,
    keyed by monomial."""
    cckp.clear_caches()
    paper = recursion.build_matrix()
    pair = hierarchy.flow(1)
    while pair.m < top:
        pair = recursion.step(pair, paper)
    for work in list(diffring._NF_ATOM_CACHE):
        for key, _ in work:
            _mono_form(key)
    return {
        work[0][0]: form
        for work, form in diffring._NF_ATOM_CACHE.items()
        if len(work) == 1
    }


def _leaves(x):
    if isinstance(x, tuple):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _atom_keys(key):
    """Every atom key inside a monomial key, nested ones included."""
    for akey, _ in key[1]:
        yield akey
        yield from _atom_keys(akey)


def _as_pair(form):
    """A stored integer form (den, pre, res) as its (preimage, residue) pair."""
    den, pre, res = form
    return tuple(
        DiffPoly._from_dict({k: Fraction(c, den) for k, c in items})
        for items in (pre, res)
    )


def _split_over(reducer, work, den):
    """The (preimage, residue) pair of the vector work / den."""
    d, pre, res = reducer.split(work)
    return _as_pair((d * den, pre, res))


class TestAtomNormalForms:
    def test_atom_keys_are_bare_monomial_keys(self):
        cached = _fill_atom_cache(9)
        keys = set(cached)
        for f, rho in map(_as_pair, cached.values()):
            keys.update(k for k, _ in f.terms + rho.terms)
        atom_keys = {a for key in keys for a in _atom_keys(key)}
        assert len(atom_keys) > 10
        for akey in atom_keys:
            assert len(akey) == 3 and akey[2] == 0
            assert all(isinstance(x, (str, int)) for x in _leaves(akey))

    def test_split_matches_per_monomial_reference(self):
        cached = _fill_atom_cache(7)
        assert len(cached) > 100
        for key, value in cached.items():
            reference = _reference_split_atom_mono(key)
            reducer = diffring._local_reducer(*diffring._class_of(key))
            assert _as_pair(reducer.split({key: 1})) == reference
            assert _as_pair(value) == reference

    def test_normal_forms_do_not_depend_on_the_order(self):
        cached = _fill_atom_cache(9)
        keys = sorted(cached)
        for seed in (1, 2, 3):
            random.Random(seed).shuffle(keys)
            cckp.clear_caches()
            for key in keys:
                _nf_atom(key)
            changed = [k for k in keys if _mono_form(k) != cached[k]]
            assert not changed, (seed, len(changed), len(keys))


class TestRankTables:
    def test_ranks_follow_the_priority_order(self):
        _fill_atom_cache(9)
        assert len(diffring._REDUCER_CACHE) > 100
        for reducer in diffring._REDUCER_CACHE.values():
            keys = reducer.keys
            priorities = [diffring._mon_priority(k) for k in keys]
            assert all(a < b for a, b in zip(priorities, priorities[1:]))
            assert reducer.rank == {k: i for i, k in enumerate(keys)}

    def test_every_row_key_is_in_the_table(self):
        _fill_atom_cache(9)
        for candidates, reducer in diffring._REDUCER_CACHE.items():
            # The table is the class universe: the candidates and every
            # key of their images.
            universe = set(candidates)
            for cand in candidates:
                universe.update(diffring._dx_key(cand))
            assert set(reducer.keys) == universe
            candidate_ranks = {reducer.rank[c] for c in candidates}
            pivots = [row[0] for row in reducer.pivots]
            assert pivots == sorted(set(pivots))
            for pivot, _, img_ranks, _, pre_ranks, _ in reducer.pivots:
                for r in (pivot, *img_ranks, *pre_ranks):
                    assert type(r) is int and 0 <= r < len(reducer.keys)
                assert set(pre_ranks) <= candidate_ranks

    def test_unranked_key_keeps_the_common_scaling(self):
        cached = _fill_atom_cache(7)
        # A monomial whose elimination scales the work vector...
        key = next(k for k in sorted(cached) if cached[k][0] > 1)
        reducer = diffring._local_reducer(*diffring._class_of(key))
        # ...and a key its reducer has no rank for.
        other = _single_key(DiffPoly.jet("u", 1))
        assert other not in reducer.rank
        for den in (1, 6):
            f, rho = _split_over(reducer, {key: 5, other: 3}, den)
            alone_f, alone_rho = _split_over(reducer, {key: 5}, den)
            tail = DiffPoly.monomial(other) * Fraction(3, den)
            assert (f, rho) == (alone_f, alone_rho + tail)
            assert d_x(f) + rho == (
                DiffPoly.monomial(key) * Fraction(5, den) + tail
            )

    def test_split_of_a_vector_is_the_sum_of_its_key_splits(self):
        cached = _fill_atom_cache(9)
        by_class = {}
        for key in sorted(cached):
            by_class.setdefault(diffring._class_of(key), []).append(key)
        assert any(len(keys) > 5 for keys in by_class.values())
        rng = random.Random(SEED)
        for cls, keys in by_class.items():
            coeffs = {k: rng.choice((-3, -1, 1, 2, 7)) for k in keys}
            den = rng.choice((1, 2, 15))
            got = _split_over(diffring._local_reducer(*cls), coeffs, den)
            f = rho = DiffPoly.zero()
            for k, c in coeffs.items():
                kf, krho = _reference_split_atom_mono(k)
                f = f + kf * Fraction(c, den)
                rho = rho + krho * Fraction(c, den)
            assert got == (f, rho)


def _reference_closure(key):
    """The closure walk that reuses nothing: every reached monomial is walked.

    Returns the candidates and the visited monomials.
    """
    seen = {key}
    frontier = [key]
    candidates = set()
    while frontier:
        batch, frontier = frontier, []
        for mono in batch:
            for cand in diffring._candidates_for(mono):
                if cand in candidates:
                    continue
                candidates.add(cand)
                for img_key in diffring._dx_key(cand):
                    if img_key not in seen:
                        seen.add(img_key)
                        frontier.append(img_key)
    return candidates, seen


def _chain_classes(top):
    """The classes of the monomials the step chain to t_top splits, in
    `_class_start` order, and those monomials."""
    cached = _fill_atom_cache(top)
    classes = {
        (_symdeg(jets), diffring._jet_weight(jets), atoms, scale)
        for jets, atoms, scale in cached
    }
    return sorted(classes), sorted(cached)


class TestClassClosures:
    def test_cold_walks_match_the_walk_that_reuses_nothing(self):
        classes, _ = _chain_classes(9)
        assert len(classes) > 200
        for cls in classes:
            start = _class_start(*cls)
            clear_caches()
            got = diffring._closure_candidates(start)
            visited = diffring._CLASS_CLOSURES[diffring._class_of(start)][1]
            assert (got, visited) == _reference_closure(start)

    def test_shuffled_fills_match_the_walk_that_reuses_nothing(self):
        classes, keys = _chain_classes(9)
        for seed in (1, 2):
            random.Random(seed).shuffle(keys)
            clear_caches()
            for key in keys:
                _mono_form(key)
            recorded = dict(diffring._CLASS_CLOSURES)
            assert len(recorded) > 100
            for cls in classes:
                start = _class_start(*cls)
                assert diffring._closure_candidates(start) == (
                    _reference_closure(start)[0]
                )
            for (symdeg, weight, scale, atoms), closure in recorded.items():
                start = _class_start(symdeg, weight, atoms, scale)
                assert closure == _reference_closure(start)

    def test_every_member_reaches_its_recorded_class_closure(self):
        # Reuse takes a class's recorded candidates whole wherever a walk
        # reaches one of its members, so a walk from any member must find
        # exactly what the walk from the class start recorded.
        _, keys = _chain_classes(9)
        assert len(keys) > 700 and sum(1 for key in keys if key[1]) > 300
        recorded = dict(diffring._CLASS_CLOSURES)
        for key in keys:
            closure = recorded[diffring._class_of(key)]
            assert _reference_closure(key)[0] == closure[0]

    def test_equal_engine_keys_are_one_object(self):
        _fill_atom_cache(9)
        canonical = {}
        keys = []
        for work, (_, pre, res) in diffring._NF_ATOM_CACHE.items():
            keys.extend(k for k, _ in work + pre + res)
        for reducer in diffring._REDUCER_CACHE.values():
            keys.extend(reducer.keys)
        for candidates, visited in diffring._CLASS_CLOSURES.values():
            keys.extend(candidates)
            keys.extend(visited)
        assert len(keys) > 10000
        for key in keys:
            assert canonical.setdefault(key, key) is key

    def test_stored_forms_are_canonical(self):
        cached = _fill_atom_cache(9)
        vectors = list(diffring._NF_ATOM_CACHE.items())
        assert sum(1 for work, _ in vectors if len(work) > 1) > 40
        for work, (den, pre, res) in vectors:
            # The vector: one class, content 1, positive first coefficient.
            work_coeffs = [c for _, c in work]
            assert all(type(c) is int and c for c in work_coeffs)
            assert math.gcd(*work_coeffs) == 1 and work_coeffs[0] > 0
            assert len({diffring._class_of(k) for k, _ in work}) == 1
            # Its form.
            assert type(den) is int and den > 0
            coeffs = [c for _, c in pre + res]
            assert all(type(c) is int and c for c in coeffs)
            assert math.gcd(den, *coeffs) == 1
            for items in (work, pre, res):
                assert list(items) == sorted(items)
                assert len({k for k, _ in items}) == len(items)
        for key in cached:
            assert diffring._is_reduced_mono(key) == (not cached[key][1])
