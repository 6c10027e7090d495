import random
import sys
from fractions import Fraction

import pytest

from cckp.diffring import DiffPoly, antiderivative
from cckp.grammar import parse_poly

SEED = 0xC0FFEE


def P(text: str) -> DiffPoly:
    return parse_poly(text)


@pytest.fixture
def rng():
    return random.Random(SEED)


_ATOM_POOL_SOURCES = ("q^2", "q*r", "r^2")


def random_poly(
    rng,
    max_terms=3,
    max_factors=2,
    max_order=2,
    max_power=2,
    max_weight=4,
    symbols=("q", "r"),
    allow_atoms=False,
    allow_scale=False,
    allow_const=True,
):
    out = DiffPoly.zero()
    for _ in range(rng.randint(0 if allow_const else 1, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if not coeff:
            coeff = Fraction(1)
        term = DiffPoly.const(coeff)
        weight = 0
        for _ in range(rng.randint(0 if allow_const else 1, max_factors)):
            sym = rng.choice(symbols)
            order = rng.randint(0, max_order)
            power = rng.randint(1, max_power)
            if weight + order * power > max_weight:
                order = 0
            weight += order * power
            term = term * DiffPoly.jet(sym, order) ** power
        if allow_atoms and rng.random() < 0.4:
            term = term * antiderivative(P(rng.choice(_ATOM_POOL_SOURCES)))
        if allow_scale and rng.random() < 0.3:
            term = term * DiffPoly.lam(rng.randint(-2, 2))
        out = out + term
    return out


def constant_term(p):
    """The coefficient of p's term with no jets, atoms or lam (0 if none)."""
    return dict(p.terms).get(((), (), 0), 0)


def constant_part(p):
    """The terms of p in the kernel of d_x: no jets, no atoms, any lam power."""
    return DiffPoly(tuple((k, c) for k, c in p.terms if not k[0] and not k[1]))


def random_local_poly(rng, **kw):
    kw.setdefault("allow_atoms", False)
    return random_poly(rng, **kw)


def memo_sizes(prefix="cckp"):
    """The size of every memo table in the loaded modules under prefix.

    A table is an `lru_cache` defined in a `cckp` module or a module-level
    dict or set of the integration engine (`cckp.diffring`), so a table
    added later is found without naming it here.
    """
    sizes = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith(prefix):
            continue
        for attr, value in vars(module).items():
            label = f"{name}.{attr}"
            if callable(getattr(value, "cache_info", None)):
                if getattr(value, "__module__", None) == name:
                    sizes[label] = value.cache_info().currsize
            elif (
                name == "cckp.diffring"
                and not attr.startswith("__")
                and isinstance(value, (dict, set))
            ):
                sizes[label] = len(value)
    return sizes
