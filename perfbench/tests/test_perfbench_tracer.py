"""The outside-in tracer: self-time arithmetic, re-binding and restoration."""

import sys
import types

import pytest

from perfbench import layers
from perfbench.tracer import MARK, SpanSpec, Tracer, _package_modules

NOW = [0.0]


def _advance(dt):
    NOW[0] += dt


_CORE = """
def inner(fail=False):
    _advance(3.0)
    if fail:
        raise ValueError("boom")
    return "inner"

def outer(fail=False):
    _advance(1.0)
    try:
        inner(fail)
    except ValueError:
        pass
    inner()
    _advance(2.0)
    return "outer"

class Num:
    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        _advance(0.5)
        return Num(self.v + getattr(other, "v", other))

    __radd__ = __add__
"""


@pytest.fixture
def fakepkg(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    core._advance = _advance
    exec(_CORE, core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner = core.inner  # a `from .core import inner` re-binding
    pkg.outer = core.outer  # a package-level re-export
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    NOW[0] = 0.0
    return pkg, core, user


def leftover_wrappers(package="cckp"):
    """Bindings in the package that still hold a tracer wrapper."""
    found = []
    for module in _package_modules(package):
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for obj in owners:
            found += [name for name, value in vars(obj).items() if getattr(value, MARK, None)]
    return found


def _tracer():
    return Tracer(
        (
            SpanSpec("outer", (("fakepkg.core", "outer"),)),
            SpanSpec("inner", (("fakepkg.core", "inner"),)),
            SpanSpec("add", (("fakepkg.core:Num", "__add__"), ("fakepkg.core:Num", "__radd__"))),
        ),
        package="fakepkg",
        clock=lambda: NOW[0],
    )


def test_self_time_is_duration_minus_children(fakepkg):
    _, core, _ = fakepkg
    with _tracer() as tracer:
        assert core.outer(fail=True) == "outer"
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    # outer: 1 + (3 failed) + 3 + 2 = 9 s long, of which 6 s in its children.
    assert (outer.calls, outer.self_s) == (1, 3.0)
    assert (inner.calls, inner.self_s, inner.errors) == (2, 6.0, 1)
    assert tracer.top_level_s == 9.0


def test_every_binding_is_wrapped_and_restored(fakepkg):
    pkg, core, user = fakepkg
    originals = {
        "pkg.outer": pkg.outer,
        "core.outer": core.outer,
        "core.inner": core.inner,
        "user.inner": user.inner,
        "add": core.Num.__dict__["__add__"],
        "radd": core.Num.__dict__["__radd__"],
    }
    tracer = _tracer().install()
    try:
        assert pkg.outer is core.outer is not originals["core.outer"]
        assert user.inner is core.inner is not originals["core.inner"]
        assert core.Num.__dict__["__radd__"] is core.Num.__dict__["__add__"]
        user.inner()
        pkg.outer()
        total = 1 + core.Num(2)  # __radd__
        assert total.v == 3
        assert leftover_wrappers("fakepkg")
    finally:
        tracer.uninstall()
    assert tracer.stats["inner"].calls == 3  # once directly, twice from outer
    assert tracer.stats["outer"].calls == 1
    assert tracer.stats["add"].calls == 1
    assert pkg.outer is originals["pkg.outer"]
    assert core.outer is originals["core.outer"]
    assert core.inner is originals["core.inner"] is user.inner
    assert core.Num.__dict__["__add__"] is originals["add"]
    assert core.Num.__dict__["__radd__"] is originals["radd"]
    assert leftover_wrappers("fakepkg") == []


def test_missing_names_are_reported_not_fatal(fakepkg):
    tracer = Tracer(
        (SpanSpec("gone", (("fakepkg.core", "renamed_away"),)),), package="fakepkg"
    )
    with tracer:
        pass
    assert tracer.missing == ["fakepkg.core.renamed_away"]


def _cckp_bindings():
    import cckp  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cckp" or name.startswith("cckp.")):
            continue
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for attr, value in list(vars(owner).items()):
                out[(name, getattr(owner, "__qualname__", name), attr)] = value
    return out


def test_cckp_tracer_counts_spans_and_restores_originals():
    from cckp import hierarchy, recursion

    before = _cckp_bindings()
    with Tracer(layers.SPANS) as tracer:
        recursion.step(hierarchy.flow(3))
    assert tracer.missing == []
    metrics = layers.span_metrics(tracer)
    assert metrics["recursion.step.calls"] == 1
    assert metrics["nonlocal_ops.apply.calls"] == 4
    assert metrics["diffring.antiderivative.calls"] > 0
    assert metrics["diffring.mul.products"] >= metrics["diffring.mul.calls"] > 0
    after = _cckp_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert leftover_wrappers() == []
