"""Outside-in tracer: wraps named functions of the `cckp` modules with spans.

Nothing under `src/` is edited.  `Tracer.install()` replaces every binding of
each named function across the loaded `cckp.*` modules (re-exports and
`from .x import f` re-bindings included) and every alias of a named method in
its class, and `Tracer.uninstall()` puts the originals back.

Spans nest: each span knows its parent through a stack, so a span's self time
is its duration minus the durations of its direct children.  Each span is
folded into its name's totals when it closes, so memory does not grow with
the number of calls.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

MARK = "__perfbench_span__"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    extra: dict = field(default_factory=dict)

    def bump(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount


@dataclass(frozen=True)
class SpanSpec:
    """One traced name: the (owner path, attribute) bindings it covers.

    `owner` is a module name ("cckp.diffring") or a module name and class
    ("cckp.diffring:DiffPoly").  `observe(stats, args, result, dur, self_s)`
    adds counters after a call that returned.
    """

    name: str
    targets: tuple
    observe: object = None


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name, None)


def _package_modules(package: str):
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Span recorder over a fixed table of `SpanSpec`s.

    `clock` returns seconds; a test may pass a fake one.
    """

    def __init__(self, specs, package: str = "cckp", clock=time.perf_counter):
        self.specs = tuple(specs)
        self.package = package
        self.clock = clock
        self.stats = {spec.name: SpanStats() for spec in self.specs}
        self.top_level_s = 0.0
        self.missing = []
        self._stack = []
        self._patched = []  # (owner object, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, spec: SpanSpec, original):
        stats = self.stats[spec.name]
        stack = self._stack
        clock = self.clock
        observe = spec.observe
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_level_s += dur
                self_s = dur - frame[0]
                stats.calls += 1
                stats.self_s += self_s
            if observe is not None:
                observe(stats, args, result, dur, self_s)
            return result

        wrapper.__name__ = getattr(original, "__name__", spec.name)
        wrapper.__qualname__ = getattr(original, "__qualname__", spec.name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, MARK, spec.name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules(self.package)
        for spec in self.specs:
            for owner_path, attr in spec.targets:
                if owner_path.partition(":")[0] not in sys.modules:
                    continue  # not loaded by this workload: nothing to wrap
                owner = _resolve_owner(owner_path)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                if getattr(original, MARK, None) is not None:
                    continue  # an alias already wrapped by this spec
                wrapper = self._wrap(spec, original)
                owners = [owner] if isinstance(owner, type) else modules
                for obj in owners:
                    for name, value in list(vars(obj).items()):
                        if value is original:
                            setattr(obj, name, wrapper)
                            self._patched.append((obj, name, original))
        return self

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

