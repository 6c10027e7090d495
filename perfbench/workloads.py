"""The four benchmark workloads: what each runs, and how its outputs are checked.

Every workload calls `cckp` through module attributes (`hierarchy.flow`, not a
name bound at import), so that the tracer's wrappers are the ones called.
Outputs are compared after the timed phase with the committed references in
`perfbench/refs/`; an item that raised or whose canonical text differs from the
reference counts as failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS = Path(__file__).resolve().parent / "refs"
FLOWS_REF = "flows.json"
VERIFY_REF = "verify_all.json"

VERIFY_ARGV = ["verify", "all", "--format", "json"]
TOP_FLOW = 11
WARM_TOP_FLOW = 9


def load_refs() -> dict:
    return {
        "flows": json.loads((REFS / FLOWS_REF).read_text()),
        "verify": (REFS / VERIFY_REF).read_text(),
    }


def flow_texts(pair) -> dict:
    from cckp import grammar

    return {"q_t": grammar.poly_text(pair.q_t), "r_t": grammar.poly_text(pair.r_t)}


# -- the timed passes ------------------------------------------------------------


def generator_pass() -> dict:
    """The (L^n)_+ route: hierarchy.flow(n) for n = 1, 3, ..., 11."""
    from cckp import hierarchy

    out = {}
    for n in range(1, TOP_FLOW + 1, 2):
        try:
            out[f"t_{n}"] = hierarchy.flow(n)
        except Exception as exc:  # a failed item is reported, not fatal
            out[f"t_{n}"] = exc
    return out


def _step_chain(top: int) -> dict:
    """The recursion route: step from flow(1), each step fed the previous one."""
    from cckp import hierarchy, recursion

    out = {}
    try:
        pair = hierarchy.flow(1)
        while pair.m < top:
            pair = recursion.step(pair)
            out[f"t_{pair.m}"] = pair
    except Exception as exc:  # the chain stops; unreached items fail
        for m in range(3, top + 1, 2):
            out.setdefault(f"t_{m}", exc)
    return out


def recursion_pass() -> dict:
    return _step_chain(TOP_FLOW)


def warm_pass() -> dict:
    return _step_chain(WARM_TOP_FLOW)


def verify_pass() -> dict:
    """`cckp verify all --format json` through the CLI entry point."""
    from cckp import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(VERIFY_ARGV)
    except Exception as exc:
        return {"error": exc}
    return {"rc": rc, "text": buf.getvalue()}


# -- checking --------------------------------------------------------------------


def check_flows(outputs: dict, expected: dict):
    """(canonical texts, failures) for flow items against their references."""
    canonical, failures = {}, []
    for item, ref in expected.items():
        value = outputs.get(item)
        if value is None or isinstance(value, Exception):
            failures.append(f"{item}: {value!r}")
            continue
        texts = flow_texts(value)
        canonical[item] = texts
        if texts != ref:
            failures.append(f"{item}: canonical form differs from the reference")
    return canonical, failures


def _flow_items(first: int, top: int):
    return lambda refs: [f"t_{m}" for m in range(first, top + 1, 2)]


def _flow_check(items):
    def check(outputs: dict, refs: dict):
        return check_flows(outputs, {i: refs["flows"][i] for i in items(refs)})

    return check


def verify_items(refs: dict) -> list:
    return [c["name"] for c in json.loads(refs["verify"])["checks"]] + ["envelope"]


def check_verify(outputs: dict, refs: dict):
    """One item per reference check, plus the envelope (exit code, config)."""
    ref = json.loads(refs["verify"])
    if "error" in outputs:
        return {}, [f"{name}: {outputs['error']!r}" for name in verify_items(refs)]
    try:
        got = json.loads(outputs["text"])
    except ValueError:
        return {}, [f"{name}: output is not JSON" for name in verify_items(refs)]
    got_checks = {c.get("name"): c for c in got.get("checks", [])}
    failures = [
        f"{c['name']}: differs from the reference"
        for c in ref["checks"]
        if got_checks.get(c["name"]) != c
    ]
    header = {k: v for k, v in got.items() if k != "checks"}
    if outputs["rc"] != 0 or header != {k: v for k, v in ref.items() if k != "checks"}:
        failures.append(f"envelope: exit code {outputs['rc']} or header differs")
    return {"verify": outputs["text"]}, failures


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[[], dict]
    items: Callable[[dict], list]  # refs -> names of the items one pass checks
    check: Callable[[dict, dict], tuple]  # (outputs, refs) -> (canonical, failures)
    cold: bool  # True: one timed pass per fresh process
    modules: tuple = ("cckp",)

    def setup(self, refs: dict) -> None:
        """Imports, plus the cache-filling pass of a warm workload."""
        for module in self.modules:
            importlib.import_module(module)
        if not self.cold:
            _, failures = self.check(self.run_pass(), refs)
            if failures:
                raise RuntimeError(f"set-up pass failed: {failures[0]}")


_GEN_ITEMS = _flow_items(1, TOP_FLOW)
_REC_ITEMS = _flow_items(3, TOP_FLOW)
_WARM_ITEMS = _flow_items(3, WARM_TOP_FLOW)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("generator", generator_pass, _GEN_ITEMS, _flow_check(_GEN_ITEMS), cold=True),
        Workload("recursion", recursion_pass, _REC_ITEMS, _flow_check(_REC_ITEMS), cold=True),
        Workload("recursion-warm", warm_pass, _WARM_ITEMS, _flow_check(_WARM_ITEMS), cold=False),
        Workload(
            "verify", verify_pass, verify_items, check_verify, cold=True,
            modules=("cckp", "cckp.cli"),
        ),
    )
}
