"""Differential polynomial ring over Q in jet variables, with antiderivative atoms.

Values are immutable; every operation returns a new ``DiffPoly`` (see its terms).
The ring knows the symbols of ``SYMBOLS``: three dependent ones (``q``, ``r``
and the rescaled ``u``) and two free ones (``v`` and ``w``, which stand for
any ``f`` and ``g`` in a generic check), a formal scale constant ``lam``, and
formal antiderivatives ``I(...)`` of expressions that are not total
x-derivatives.

``integrate`` is the exact integration-by-parts engine: it splits any
polynomial ``p`` as ``d_x(F) + rho`` where the remainder ``rho`` is canonical
and admits no further reduction.  The split is computed as a normal form of
``p`` against the span of ``d_x`` images of a finite candidate set, so equal
inputs (and inputs that differ by exact terms) always produce identical
remainders.  That determinism is what lets antiderivative atoms created in
independent computations cancel exactly.

Coefficients follow one rule: a coefficient is an ``int`` when it is
integral and a ``Fraction`` only when it is not.  ``integrate`` scales each
class's terms to one integer vector of content 1 (a monomial is a one-term
vector), reduces it without fractions against the class's integer reducer,
memoizes its form ``(den, pre, res)`` in one table, and sums the forms,
weighted by the contents, over a common denominator and divides once.

The engine does each piece of work once: every monomial key it makes is
interned (one shared object per key), each class's closure walk is
recorded whole and reused by later walks, and a reducer build computes each
key's priority once.  The key kernels do no more than their inputs need.
Polynomials whose keys are all local and free of lam, v and w multiply in
`_products_into` as packed ints, one-term sides included: a key product is
one int addition, and each distinct product is decoded to a key once.  Such
a polynomial is also differentiated on its pack, and its derivative keeps
its own pack.  Any other key product, and `DiffPoly.__mul__` by a one-term
side, whose products never meet, merges factor tuples: it skips empty ones,
inserts a one-factor side by bisection and merges two longer sorted ones in
one two-pointer pass.  A one-order jet shift looks only at the shifted
factor's neighbour.

A sum of many polynomials goes through one rule, `poly_sum`: every weighted
piece is added into one sparse dict and the result is built once from it.
No result is sorted.  A reader that needs an order sorts for itself: display,
`integrate`'s class vectors, the chain order of operators, and each walk over
terms that can raise, so that its error names the same term in any order.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from .errors import EngineError, NestingTooDeep, OddScaleResidue, require_int

# The dependent symbols q, r and the rescaled u pack (see `_pack_key`), in
# their sorted order, which is the order `_unpack` gives; the free symbols v
# and w, which stand for any f and g in a generic check, do not.
_PACKED = ("q", "r", "u")
SYMBOLS = (*_PACKED, "v", "w")

# A monomial key is (jets, atoms, scale):
#   jets:  tuple of ((symbol, order), power), sorted
#   atoms: tuple of (atom_key, power), sorted; atom_key is the key of the
#          atom's monic, lam-free integrand, so atoms are equal exactly when
#          their integrands are
#   scale: integer exponent of the formal constant lam

_EMPTY_KEY = ((), (), 0)


def _fr(c):
    """A coefficient in canonical form: `int` when integral, else `Fraction`."""
    if isinstance(c, Fraction):
        return c if c.denominator != 1 else c.numerator
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected a rational coefficient, got {type(c).__name__}")


def _merge_factors(a, b):
    """Multiply two sorted factor tuples (powers add)."""
    if len(b) == 1:
        return _insert_factor(a, *b[0])
    if len(a) == 1:
        return _insert_factor(b, *a[0])
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        fa, pa = a[i]
        fb, pb = b[j]
        if fa == fb:
            out.append((fa, pa + pb))
            i += 1
            j += 1
        elif fa < fb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def _insert_factor(factors, f, p):
    """The sorted factor tuple times f**p."""
    i = bisect_left(factors, (f,))
    if i < len(factors) and factors[i][0] == f:
        return factors[:i] + ((f, factors[i][1] + p),) + factors[i + 1:]
    return factors[:i] + ((f, p),) + factors[i:]


def _addto(acc: dict, items, c=None) -> None:
    """Add c*items (items itself when c is None) into the sparse dict acc.

    Keys whose coefficient cancels are dropped.
    """
    get = acc.get
    if c is None:
        for k, v in items:
            nv = get(k, 0) + v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]
        return
    for k, v in items:
        nv = get(k, 0) + c * v
        if nv:
            acc[k] = nv
        elif k in acc:
            del acc[k]


def poly_sum(pieces) -> DiffPoly:
    """The sum of c * p over (c, p) pairs, built once from one sparse dict.

    The weights c are rationals.  No partial sum is built as a `DiffPoly`,
    and pieces given by a generator are added one at a time, so each can be
    freed before the next is made.
    """
    acc = {}
    for c, p in pieces:
        _addto(acc, p.terms, None if c == 1 else c)
    return DiffPoly._from_dict(acc)


def _drop_one(factors, i):
    """The sorted factor tuple with one power of factor i removed."""
    f, p = factors[i]
    if p == 1:
        return factors[:i] + factors[i + 1:]
    return factors[:i] + ((f, p - 1),) + factors[i + 1:]


def _shift_order(jets, i, delta):
    """The sorted jet tuple with one power of factor i moved delta orders."""
    (sym, order), p = jets[i]
    jet = (sym, order + delta)
    if delta != 1 and delta != -1:
        return _insert_factor(_drop_one(jets, i), jet, 1)
    # A jet one order away can only be factor i's neighbour on that side.
    kept = (((sym, order), p - 1),) if p > 1 else ()
    j = i + delta
    if 0 <= j < len(jets) and jets[j][0] == jet:
        moved = ((jet, jets[j][1] + 1),)
        if delta == 1:
            return jets[:i] + kept + moved + jets[j + 1:]
        return jets[:j] + moved + kept + jets[i + 1:]
    if delta == 1:
        return jets[:i] + kept + ((jet, 1),) + jets[j:]
    return jets[:i] + ((jet, 1),) + kept + jets[i + 1:]


def _key_mul(k1, k2):
    j1, a1, s1 = k1
    j2, a2, s2 = k2
    return (
        _merge_factors(j1, j2) if j1 and j2 else j1 or j2,
        _merge_factors(a1, a2) if a1 and a2 else a1 or a2,
        s1 + s2,
    )


# Packed products (Monagan & Pearce, CASC 2007).  A key with no atoms, no
# lam, only symbols of _PACKED and degree under 128 packs into one int: the
# power of jet (sym, order) sits in the 8-bit slot
# len(_PACKED)*order + _PACKED.index(sym).  The sum of two packed keys is
# their product, with no carry between slots, and adding _RAISE << bit moves
# one power of the jet at bit up one order.  The layout is fixed, so a pack
# stays valid for the life of its polynomial.
_RAISE = (1 << 8 * len(_PACKED)) - 1
_PACK = {}  # key -> its int, or False when the key cannot be packed
_UNPACK = {}  # int -> its key, built once per distinct product
_FACTORS = {}  # (sym, order, power) -> the one ((sym, order), power) pair


def _bit(sym, order) -> int:
    """The lowest bit of the slot of jet (sym, order), a symbol of _PACKED."""
    return 8 * (len(_PACKED) * order + _PACKED.index(sym))


def _pack_key(key):
    """The packed int of key, or False when it has atoms, lam, a symbol
    outside _PACKED or degree >= 128."""
    e = _PACK.get(key)
    if e is None:
        jets, atoms, scale = key
        e = _PACK[key] = not (
            atoms or scale or _jet_degree(jets) >= 128
            or any(sym not in _PACKED for (sym, _), _ in jets)
        ) and sum(p << _bit(sym, order) for (sym, order), p in jets)
    return e


def _unpack(e):
    """The key of the packed int e, jets sorted by symbol and then order."""
    width = len(_PACKED)
    data = e.to_bytes((e.bit_length() + 7) // 8, "little")
    jets = []
    for i, sym in enumerate(_PACKED):
        for order, p in enumerate(data[i::width]):
            if p:
                f = _FACTORS.get((sym, order, p))
                if f is None:
                    f = _FACTORS[sym, order, p] = ((sym, order), p)
                jets.append(f)
    return tuple(jets), (), 0


def _packed(p):
    """p's terms as (packed int, coeff) pairs, or False; kept on p."""
    if p._pack is None:
        pack = tuple((_pack_key(k), c) for k, c in p.terms)
        p._pack = all(e is not False for e, _ in pack) and pack
    return p._pack


def _products_into(acc: dict, a: DiffPoly, b: DiffPoly, c=1) -> None:
    """Add c * (a * b) into the sparse dict acc.

    The one product loop of the ring: `DiffPoly.__mul__` (both sides of two
    or more terms), the Leibniz expansion of operators and `prolong_t` all
    sum their products here.  When all keys of both sides pack, one-term
    sides included, each key product is one int addition, decoded through
    `_UNPACK`; otherwise the keys are merged by `_key_mul`.  Both paths
    insert the same keys in the same order.
    """
    get = acc.get
    pa = _packed(a)
    pb = pa and _packed(b)
    if pb:
        unpack = _UNPACK
        for e1, c1 in pa:
            if c != 1:
                c1 = c * c1
            for e2, c2 in pb:
                e = e1 + e2
                k = unpack.get(e)
                if k is None:
                    k = unpack[e] = _unpack(e)
                v = get(k, 0) + c1 * c2
                if v:
                    acc[k] = v
                elif k in acc:
                    del acc[k]
        return
    for k1, c1 in a.terms:
        if c != 1:
            c1 = c * c1
        for k2, c2 in b.terms:
            k = _key_mul(k1, k2)
            v = get(k, 0) + c1 * c2
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]


def _jet_weight(jets) -> int:
    return sum(order * p for (_, order), p in jets)


def _jet_degree(jets) -> int:
    return sum(p for _, p in jets)


@lru_cache(maxsize=None)
def _atom_depth(atom_key) -> int:
    return 1 + max((_atom_depth(a) for a, _ in atom_key[1]), default=0)


def _key_atom_depths(key):
    atoms = key[1]
    if not atoms:
        return ()
    depths = []
    for akey, p in atoms:
        depths.extend([_atom_depth(akey)] * p)
    return tuple(sorted(depths, reverse=True))


def _mon_priority(key):
    """Total order on monomial keys; larger keys are reduced first."""
    jets, atoms, scale = key
    degree = weight = 0
    for (_, order), p in jets:
        degree += p
        weight += order * p
    return (_key_atom_depths(key), atoms, degree, weight, jets, scale)


def _display_key(item):
    key, _ = item
    jets, atoms, scale = key
    max_order = max((order for (_, order), _ in jets), default=0)
    return (
        -max_order,
        -_jet_weight(jets),
        _jet_degree(jets),
        jets,
        atoms,
        scale,
    )


class DiffPoly:
    """Exact-rational polynomial in jet variables and antiderivative atoms.

    `terms` holds (key, coeff) pairs with distinct keys and nonzero canonical
    coefficients (`_fr`) in no promised order: equality and hash read them as
    a mapping, and `display_terms` gives the one order output uses.  The
    constructor sums repeated keys, drops zeros and canonicalizes; the ring's
    own results, whose terms are canonical already, go through `_poly`.
    """

    # `_dx` keeps d_x(self) once computed, and `_pack` the packed terms of
    # `_packed`; both are freed with the polynomial.
    __slots__ = ("terms", "_dx", "_pack")

    def __init__(self, terms=()):
        acc = {}
        _addto(acc, ((k, _fr(c)) for k, c in terms))
        self.terms = DiffPoly._from_dict(acc).terms
        self._dx = self._pack = None

    @classmethod
    def _from_dict(cls, d) -> "DiffPoly":
        return _poly(tuple([
            (k, c if c.denominator != 1 else c.numerator) for k, c in d.items() if c
        ]))

    @classmethod
    def zero(cls) -> "DiffPoly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "DiffPoly":
        return _ONE_POLY

    @classmethod
    def const(cls, c) -> "DiffPoly":
        c = _fr(c)
        return _poly(((_EMPTY_KEY, c),)) if c else _ZERO_POLY

    @classmethod
    def monomial(cls, key) -> "DiffPoly":
        """The monic one-term polynomial with the given monomial key."""
        return _poly(((key, 1),))

    @classmethod
    def jet(cls, symbol: str, order: int = 0) -> "DiffPoly":
        if symbol not in SYMBOLS:
            raise ValueError(f"unknown symbol {symbol!r}")
        require_int(order, "derivative order", 0)
        return cls.monomial(((((symbol, order), 1),), (), 0))

    @classmethod
    def lam(cls, exponent: int = 1) -> "DiffPoly":
        require_int(exponent, "lam exponent")
        return cls.monomial(((), (), exponent))

    # -- ring structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            a, b = self.terms, other.terms
            return len(a) == len(b) and dict(a) == dict(b)
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    def __hash__(self):
        # A constant equals its number, so it hashes as that number.
        terms = self.terms
        if len(terms) > 1 or terms and terms[0][0] != _EMPTY_KEY:
            return hash(frozenset(terms))
        return hash(terms[0][1] if terms else 0)

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        _addto(d, other.terms)
        return DiffPoly._from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _poly(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            if not c:
                return _ZERO_POLY
            products = ((k, c * v) for k, v in self.terms)
            return _poly(tuple(
                (k, p if p.denominator != 1 else p.numerator)
                for k, p in products
            ))
        if not isinstance(other, DiffPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # Multiplying by one monomial is injective on keys: no two
            # products meet, so they need no summing dict.
            (k1, c1), = a
            products = ((_key_mul(k1, k2), c1 * c2) for k2, c2 in b)
            return _poly(tuple([
                (k, p if p.denominator != 1 else p.numerator) for k, p in products
            ]))
        d = {}
        _products_into(d, self, other)
        return DiffPoly._from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        require_int(n, "ring power", 0)
        out = _ONE_POLY
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        from .grammar import poly_text

        return poly_text(self)

    # -- structure inspection ------------------------------------------------

    @property
    def is_local(self) -> bool:
        return all(not k[1] for k, _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return all(k == _EMPTY_KEY for k, _ in self.terms)

    def atom_part(self) -> "DiffPoly":
        return _poly(tuple((k, c) for k, c in self.terms if k[1]))

    def display_terms(self):
        return sorted(self.terms, key=_display_key)


def _poly(terms) -> DiffPoly:
    """The polynomial with these terms, taken as they are: canonical
    results of the ring, or a one-term operand only read by a product."""
    p = object.__new__(DiffPoly)
    p.terms = terms
    p._dx = p._pack = None
    return p


_ZERO_POLY = _poly(())
_ONE_POLY = DiffPoly.monomial(_EMPTY_KEY)


def _coerce(x):
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return DiffPoly.const(x)
    return NotImplemented


# -- differentiation ---------------------------------------------------------


# One shared object for each monomial key (and each closure set) the
# integration engine makes, so equal keys met again cost no memory and
# dict lookups on them hit on identity.
_INTERNED = {}


def _intern(key):
    return _INTERNED.setdefault(key, key)


def _dx_key(key) -> dict:
    """Total x-derivative of a single monic monomial, as a key -> coeff dict."""
    jets, atoms, scale = key
    out = {}
    for i, (_, power) in enumerate(jets):
        nk = _intern((_shift_order(jets, i, 1), atoms, scale))
        out[nk] = out.get(nk, 0) + power
    for i, (akey, power) in enumerate(atoms):
        nk = _intern(_key_mul((jets, _drop_one(atoms, i), scale), akey))
        out[nk] = out.get(nk, 0) + power
    return out


def _dx_packed(p: DiffPoly, pack) -> DiffPoly:
    """d_x of p from its pack, keeping the result's pack on it.

    Each key's jets are walked in `_dx_key`'s order, so the result's keys
    come in the order the key-by-key path gives them.
    """
    acc = {}
    get = acc.get
    width, index = len(_PACKED), _PACKED.index
    for (key, c), (e, _) in zip(p.terms, pack):
        for (sym, order), power in key[0]:
            # _bit(sym, order), inlined: a call per jet slows this loop.
            e1 = e + (_RAISE << 8 * (width * order + index(sym)))
            v = get(e1, 0) + c * power
            if v:
                acc[e1] = v
            elif e1 in acc:
                del acc[e1]
    unpack = _UNPACK
    terms, out_pack = [], []
    for e, v in acc.items():
        k = unpack.get(e)
        if k is None:
            k = unpack[e] = _unpack(e)
        if v.denominator == 1:
            v = v.numerator
        terms.append((k, v))
        out_pack.append((e, v))
    out = _poly(tuple(terms))
    out._pack = tuple(out_pack)
    return out


def d_x(p: DiffPoly, n: int = 1) -> DiffPoly:
    """n-th total x-derivative, memoized link by link in `_dx`.

    A polynomial whose keys all pack is differentiated on its pack.
    """
    require_int(n, "derivative order", 0)
    for _ in range(n):
        if p._dx is None:
            pack = _packed(p)
            if pack:
                p._dx = _dx_packed(p, pack)
            else:
                d = {}
                for key, c in p.terms:
                    _addto(d, _dx_key(key).items(), c)
                p._dx = DiffPoly._from_dict(d)
        p = p._dx
    return p


# -- integration -------------------------------------------------------------


class _Reducer:
    """Canonical reduction against the span of d_x images of candidate monomials.

    Pivot monomials are the leading terms (under `_mon_priority`) of the image
    span, so the residual of `split` is the true normal form modulo that span
    and does not depend on the candidate processing order.

    Elimination runs on integer ranks.  `keys` is the class universe (the
    candidates and every key of their d_x images) sorted once by
    `_mon_priority`, and a key's rank (`rank`) is its index, so larger ranks
    are reduced first.  Rows are fraction-free (Bareiss, Math. Comp. 22,
    1968) and compact: each row ``(pivot, lead, img_ranks, img_coeffs,
    pre_ranks, pre_coeffs)`` holds parallel tuples of ranks and integers
    with ``d_x(pre) == img``, divided by their content, and a positive
    ``lead``, the coefficient of ``pivot == max(img_ranks)``.  Rows are
    sorted by pivot.  A build whose row visits exceed `_ELIMINATION_CAP`
    raises `EngineError` naming `start`, the monomial whose closure the
    candidates are.
    """

    __slots__ = ("keys", "rank", "pivots")

    def __init__(self, candidate_keys: Iterable, start):
        images = {ck: _dx_key(ck) for ck in candidate_keys}
        universe = set(images)
        for img in images.values():
            universe.update(img)
        keys = self.keys = sorted(universe, key=_mon_priority)
        rank = self.rank = {k: i for i, k in enumerate(keys)}
        rows = []  # compact rows, pivot-ascending
        row_pivots = []
        visits = 0
        for r in sorted(map(rank.__getitem__, images), reverse=True):
            # Each reduction visits every row once: the bound is checked
            # per candidate, outside the elimination loop.
            visits += len(rows)
            if visits > _ELIMINATION_CAP:
                raise EngineError(
                    f"reducer for {DiffPoly.monomial(start)!r} "
                    f"reached {visits} row visits, over "
                    f"diffring._ELIMINATION_CAP = {_ELIMINATION_CAP}"
                )
            img = {rank[k]: c for k, c in images[keys[r]].items()}
            used = {}
            scale = _reduce_against(rows, img, used)
            if not img:
                continue
            pre = {r: scale}
            _addto(pre, used.items(), -1)
            pivot = max(img)
            g = gcd(*img.values(), *pre.values())
            if img[pivot] < 0:
                g = -g
            i = bisect_left(row_pivots, pivot)
            row_pivots.insert(i, pivot)
            rows.insert(i, (
                pivot,
                img[pivot] // g,
                tuple(img),
                tuple(c // g for c in img.values()),
                tuple(pre),
                tuple(c // g for c in pre.values()),
            ))
        self.pivots = rows

    def split(self, work: dict):
        """The canonical integer normal form of the integer vector work.

        Returns (den, pre, res) with ``work == d_x(pre / den) + res / den``:
        pre and res are sorted (key, int) tuples, den > 0 and the gcd of den
        and every coefficient is 1.  work is left as is.
        """
        rank = self.rank
        ranked = {}
        unranked = []  # keys no row touches: residual as they are
        for k, c in work.items():
            r = rank.get(k)
            if r is None:
                unranked.append((k, c))
            else:
                ranked[r] = c
        pre = {}
        scale = _reduce_against(self.pivots, ranked, pre)
        keys = self.keys
        res = [(keys[r], c) for r, c in ranked.items()]
        res += [(k, c * scale) for k, c in unranked]
        g = gcd(scale, *pre.values(), *(c for _, c in res))
        return (
            scale // g,
            tuple(sorted((keys[r], c // g) for r, c in pre.items())),
            tuple(sorted((k, c // g) for k, c in res)),
        )


def _reduce_against(rows, work: dict, pre_total: dict) -> int:
    """Eliminate the rows' pivots from the integer vector work, in place.

    Fills the empty dict pre_total and returns the scale s with
    ``s * (work on entry) == d_x(pre_total) + (work on exit)``.  Both dicts
    are multiplied only when a pivot's coefficient is not a multiple of its
    row's lead.
    """
    scale = 1
    for pivot, lead, img_r, img_c, pre_r, pre_c in reversed(rows):
        c = work.get(pivot)
        if not c:
            continue
        g = gcd(lead, c)
        if g != lead:
            f = lead // g
            scale *= f
            for k in work:
                work[k] *= f
            for k in pre_total:
                pre_total[k] *= f
        c //= g
        _addto(work, zip(img_r, img_c), -c)
        _addto(pre_total, zip(pre_r, pre_c), c)
    return scale


def _divided(vec: dict, den: int) -> dict:
    """vec / den, keeping `int` where the division is exact."""
    if den == 1:
        return vec
    out = {}
    for k, c in vec.items():
        q, rem = divmod(c, den)
        out[k] = Fraction(c, den) if rem else q
    return out


# Candidate antiderivatives of a single monomial m.  Every monomial V whose
# derivative contains m is of one of two shapes: m with one jet order lowered,
# or (m / nu) * I(nu) for a divisor nu of m that is a legal atom integrand
# (irreducible).  Closing these rules under d_x makes the per-monomial normal
# form complete, and since the rules depend on the monomial alone the normal
# form is globally consistent: independent computations always produce
# identical atoms, which is what lets them cancel exactly.
#
# Every class vector, a lone monomial included, has one memoized normal
# form, `_form`.  A monomial's closure depends only on its class: its symbol
# degrees, jet weight, lam power and atom multiset.  A lowering followed by
# a raising (`_shift_order` by -1, then +1) moves one derivative order
# between any two jet factors and leaves the atoms alone, so the walk from
# any member reaches every other member, and all of them visit the same
# monomials and collect the same candidates.  The members share one
# reducer, `_local_reducer`, walked from the member that puts every
# derivative on one factor.  A finished walk records its class's candidate
# and visited sets in `_CLASS_CLOSURES`, and a later walk that reaches a
# member of that class takes both sets whole instead of walking them again.
#
# A normal form needs no second pass over its residual.  Every monomial
# the walk from m reaches has a closure contained in m's, so a leading
# monomial of that smaller span is a leading monomial of m's span as well,
# and the reduction against m's span has already eliminated it.

_CLOSURE_CAP = 6000

_ELIMINATION_CAP = 2_000_000

# The deepest an antiderivative atom may nest, I(I(...)) counting as 2.
_NESTING_LIMIT = 2

# One class's integer vector -> its integer normal form (den, pre, res), with
# ``vector == d_x(pre / den) + res / den`` (`_Reducer.split`).  A vector is a
# tuple of (key, int) pairs, sorted, with content 1 and a positive first
# coefficient; a monomial is ((key, 1),).
_NF_ATOM_CACHE = {}


def _wrap_divisors(key):
    """Divisors nu of m keeping all of m's jets, last atom factor fastest.

    Wraps I(nu) * (m/nu) are useful only when the quotient is a pure atom
    monomial: otherwise the image's lead outranks m (one more atom on a
    jet-derivative tail) and no combination can lower it.
    """
    jets, atoms, _ = key
    subs = [()]
    for f, p in atoms:
        subs = [b + ((f, e),) if e else b for b in subs for e in range(p + 1)]
    return [(jets, a, 0) for a in subs if a != atoms and (jets or a)]


def _is_reduced_mono(key) -> bool:
    """Whether the monomial survives integration untouched."""
    return not _form(((key, 1),))[1]


def _candidates_for(key) -> dict:
    """The candidates of one monomial, as the keys of an insertion-ordered dict.

    Lowerings come first, in jet order, then wraps in `_wrap_divisors` order,
    so a walk over them (which may finish other classes on the way, through
    `_is_reduced_mono`) does the same work under every hash seed.
    """
    jets, atoms, scale = key
    out = dict.fromkeys(
        _intern((_shift_order(jets, i, -1), atoms, scale))
        for i, ((_, order), _) in enumerate(jets)
        if order
    )
    if atoms:
        for nu in _wrap_divisors(key):
            if not _is_reduced_mono(nu):
                continue
            quotient = ((), _factor_sub(atoms, nu[1]), scale)
            out[_intern(_key_mul(quotient, ((), ((nu, 1),), 0)))] = None
    return out


def _factor_sub(haystack, needle):
    h = dict(haystack)
    for k, p in needle:
        h[k] -= p
    return tuple(sorted((k, p) for k, p in h.items() if p))


def _class_of(key):
    """(symbol degrees, jet weight, lam power, atoms): the closure's class."""
    jets, atoms, scale = key
    # The jets are sorted, so the degrees come out in symbol order.
    degs = {}
    weight = 0
    for (sym, order), p in jets:
        degs[sym] = degs.get(sym, 0) + p
        weight += order * p
    return tuple(degs.items()), weight, scale, atoms


# class -> (candidates, visited monomials) of a finished walk, as frozensets
_CLASS_CLOSURES = {}


def _closure_candidates(key) -> frozenset:
    """The candidates of key and of every monomial their images reach."""
    key = _intern(key)
    seen = {key}
    frontier = [key]
    candidates = set()
    while frontier:
        batch, frontier = frontier, []
        for mono in batch:
            for cand in _candidates_for(mono):
                if cand in candidates:
                    continue
                candidates.add(cand)
                for img_key in _dx_key(cand):
                    if img_key in seen:
                        continue
                    done = _CLASS_CLOSURES.get(_class_of(img_key))
                    if done is None:
                        seen.add(img_key)
                        frontier.append(img_key)
                    else:
                        candidates |= done[0]
                        seen |= done[1]
            if len(seen) > _CLOSURE_CAP:
                raise EngineError(
                    f"integration closure of {DiffPoly.monomial(key)!r} "
                    f"reached {len(seen)} monomials, over "
                    f"diffring._CLOSURE_CAP = {_CLOSURE_CAP}"
                )
    closure = _CLASS_CLOSURES[_class_of(key)] = (
        _intern(frozenset(candidates)),
        _intern(frozenset(seen)),
    )
    return closure[0]


_REDUCER_CACHE = {}


@lru_cache(maxsize=None)
def _local_reducer(symdeg, weight: int, scale: int, atoms) -> _Reducer:
    """Reducer of every monomial in one class, local or atom-bearing.

    The class is the monomials with these symbol degrees, jet weight, lam
    power and atom multiset; their closures coincide.  Classes with equal
    closures share one reducer through `_REDUCER_CACHE`.
    """
    jets = tuple(((sym, 0), deg) for sym, deg in symdeg)
    if weight:
        jets = _shift_order(jets, 0, weight)
    start = (jets, atoms, scale)
    candidates = _closure_candidates(start)
    reducer = _REDUCER_CACHE.get(candidates)
    if reducer is None:
        reducer = _REDUCER_CACHE[candidates] = _Reducer(candidates, start)
    return reducer


_NF_ATOM_BUILDING = set()


def _form(work):
    """The integer form (den, pre, res) of one class's vector, memoized.

    The form depends on the vector alone, never on the expression it came
    from.  Only finished forms are stored in `_NF_ATOM_CACHE`: a build that
    needs its own form raises `EngineError` instead.
    """
    form = _NF_ATOM_CACHE.get(work)
    if form is not None:
        return form
    if work in _NF_ATOM_BUILDING:
        raise EngineError(f"the normal form of {DiffPoly(work)!r} depends on itself")
    work = tuple((_intern(k), c) for k, c in work)
    _NF_ATOM_BUILDING.add(work)
    try:
        form = _local_reducer(*_class_of(work[0][0])).split(dict(work))
    finally:
        _NF_ATOM_BUILDING.discard(work)
    _NF_ATOM_CACHE[work] = form
    return form


def clear_caches() -> None:
    """Empty every memo table of the ring and the integration engine.

    The tables are process-global and unbounded; later calls refill what
    they need.  Do not call it while another thread is computing.
    """
    tables = _NF_ATOM_CACHE, _REDUCER_CACHE, _CLASS_CLOSURES, _INTERNED
    for table in (*tables, _PACK, _UNPACK, _FACTORS):
        table.clear()
    for cached in (_atom_depth, _local_reducer):
        cached.cache_clear()


def integrate(p: DiffPoly):
    """Split p exactly as d_x(local) + remainder with a canonical remainder.

    The remainder is reduced: feeding it back in returns (0, remainder).
    Constants are irreducible (the ring has no explicit x), and the local
    part never contains a constant term, which pins the integration constant
    to zero.  The split is linear, and equal monomials resolve identically in
    every context.  Terms are split by class: each class's terms are sorted,
    scaled to a vector of integers with content 1 and a positive first
    coefficient, whose form `_form` memoizes, and the form is weighted by
    the content taken out.  A lone term is the vector ((key, 1),).
    """
    groups = {}
    for key, c in sorted(p.terms):
        groups.setdefault(_class_of(key), []).append((key, c))
    forms = []
    for terms in groups.values():
        if len(terms) == 1:
            key, c = terms[0]
            forms.append((c, _form(((key, 1),))))
            continue
        scale = lcm(*(c.denominator for _, c in terms))
        ints = [c.numerator * scale // c.denominator for _, c in terms]
        g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
        work = tuple((k, n // g) for (k, _), n in zip(terms, ints))
        forms.append((Fraction(g, scale) if scale != 1 else g, _form(work)))
    # The integer forms are summed over one common denominator, divided once.
    den = 1
    for c, (d, _, _) in forms:
        if d != 1 or type(c) is not int:
            den = lcm(den, d * c.denominator)
    f_total = {}
    rho_total = {}
    for c, (d, pre, res) in forms:
        if den != 1:
            c = c.numerator * (den // (d * c.denominator))
        if pre:
            _addto(f_total, pre, c)
        _addto(rho_total, res, c)
    return (
        DiffPoly._from_dict(_divided(f_total, den)),
        DiffPoly._from_dict(_divided(rho_total, den)),
    )


def antiderivative(p: DiffPoly) -> DiffPoly:
    """The engine's full antiderivative: local part plus atoms for the rest.

    Each irreducible remainder monomial becomes one monic-integrand atom with
    its coefficient and lam power kept outside, so antiderivatives are linear
    and atoms are maximally shareable across independent computations.
    """
    local, rho = integrate(p)
    if not rho.terms:
        return local
    out = dict(local.terms)
    for (jets, atoms, scale), c in sorted(rho.terms):
        akey = (jets, atoms, 0)
        depth = _atom_depth(akey)
        if depth > _NESTING_LIMIT:
            raise NestingTooDeep(
                f"atom I({DiffPoly.monomial(akey)!r}) would nest {depth} "
                f"deep, over diffring._NESTING_LIMIT = {_NESTING_LIMIT}"
            )
        if not _is_reduced_mono(akey):
            raise EngineError(f"unreduced remainder {DiffPoly.monomial(akey)!r}")
        _addto(out, ((((), ((akey, 1),), scale), c),))
    return DiffPoly._from_dict(out)


# -- prolongation along a flow ------------------------------------------------


def prolong_t(p: DiffPoly, q_t: DiffPoly, r_t: DiffPoly) -> DiffPoly:
    """Total t-derivative given the flow of q and r.

    Jet variables differentiate as d_t(s^(k)) = d_x^k(s_t); atoms
    differentiate under the integral sign, with the resulting antiderivative
    expressed canonically through `antiderivative`.
    """
    flows = {"q": q_t, "r": r_t}

    def flow_deriv(sym: str, order: int) -> DiffPoly:
        if sym not in flows:
            raise ValueError(f"no flow is defined for symbol {sym!r}")
        return d_x(flows[sym], order)

    atom_cache = {}

    def rec(poly: DiffPoly) -> DiffPoly:
        acc = {}
        for key, c in sorted(poly.terms):
            jets, atoms, scale = key
            for i, ((sym, order), power) in enumerate(jets):
                base = _poly((((_drop_one(jets, i), atoms, scale), c * power),))
                _products_into(acc, base, flow_deriv(sym, order))
            for i, (akey, power) in enumerate(atoms):
                if akey not in atom_cache:
                    atom_cache[akey] = antiderivative(rec(DiffPoly.monomial(akey)))
                base = _poly((((jets, _drop_one(atoms, i), scale), c * power),))
                _products_into(acc, base, atom_cache[akey])
        return DiffPoly._from_dict(acc)

    return rec(p)


# -- substitutions -------------------------------------------------------------


def apply_symbol_map(p: DiffPoly, mapping: dict) -> DiffPoly:
    """Rename dependent symbols and re-canonicalize.

    Atom integrands are rebuilt after the substitution: any integrand that
    becomes reducible is resolved through `antiderivative`.
    """
    acc = {}
    for key, c in sorted(p.terms):
        jets, atoms, scale = key
        new_jets = {}
        for (sym, order), power in jets:
            k = (mapping.get(sym, sym), order)
            new_jets[k] = new_jets.get(k, 0) + power
        term = DiffPoly((((tuple(sorted(new_jets.items())), (), scale), c),))
        for akey, power in atoms:
            rebuilt = antiderivative(apply_symbol_map(DiffPoly.monomial(akey), mapping))
            term = term * rebuilt ** power
        _addto(acc, term.terms)
    return DiffPoly._from_dict(acc)


def substitute_r_to_q(p: DiffPoly) -> DiffPoly:
    """Replace every r-jet by the matching q-jet, including inside atoms."""
    return apply_symbol_map(p, {"r": "q"})


def swap_q_r(p: DiffPoly) -> DiffPoly:
    """Exchange q and r everywhere, including inside atoms."""
    return apply_symbol_map(p, {"q": "r", "r": "q"})


# -- scaling -------------------------------------------------------------------
# q = lam*u: a term of q-degree d picks up lam^d, and only even powers of lam
# resolve.  Flows and operators read every power before renaming any term.


def _q_degree(key) -> int:
    """Degree of a monomial in q, counted into its atoms' integrands."""
    jets, atoms, _ = key
    if any(sym == "r" for (sym, _), _ in jets):
        raise OddScaleResidue(
            "scaling substitution applies only after r has been "
            "eliminated (found an r jet)"
        )
    degree = sum(power for (sym, _), power in jets if sym == "q")
    return degree + sum(_q_degree(akey) * power for akey, power in atoms)


def _lam_power(p: DiffPoly) -> int:
    """p's power of lam under q = lam*u: each term's own plus its q-degree.

    Every term must have the same power; `OddScaleResidue` is raised otherwise.
    """
    powers = {key[2] + _q_degree(key) for key, _ in p.terms}
    if len(powers) != 1:
        raise OddScaleResidue(f"not homogeneous under q = lam*u: {p!r}")
    return powers.pop()


def _lam_factors(lambda_sq, powers) -> list:
    """lambda_sq^k for each (2k, source) in powers; an odd power raises."""
    if isinstance(lambda_sq, bool) or not _fr(lambda_sq):
        raise ValueError(f"lambda_sq must be a nonzero rational: {lambda_sq!r}")
    # A Fraction, so that a negative power stays exact (int ** -1 is a float).
    lambda_sq = Fraction(_fr(lambda_sq))
    factors = []
    for power, source in powers:
        if power % 2:
            raise OddScaleResidue(
                f"odd scale exponent {power} cannot be resolved: {source!r}"
            )
        factors.append(lambda_sq ** (power // 2))
    return factors


def _rename_q_to_u(p: DiffPoly) -> DiffPoly:
    """p with lam dropped and q renamed u, atoms in canonical form."""
    acc = {}
    _addto(acc, (((jets, atoms, 0), c) for (jets, atoms, _), c in p.terms))
    return apply_symbol_map(DiffPoly._from_dict(acc), {"q": "u"})


def scale_substitute(p: DiffPoly, lambda_sq) -> DiffPoly:
    """Model q = lam*u on a flow: substitute, divide once by lam, resolve lam^2.

    Every term must be left with an even power of lam, which requires odd
    q-degree throughout the input; `OddScaleResidue` is raised otherwise,
    before any term is renamed or integrated.
    """
    ordered = sorted(p.terms)
    terms = [DiffPoly((t,)) for t in ordered]
    factors = _lam_factors(lambda_sq, [(_lam_power(t) - 1, t) for t in terms])
    return _rename_q_to_u(
        DiffPoly((key, c * f) for (key, c), f in zip(ordered, factors))
    )
