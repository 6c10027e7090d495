"""Regenerate the benchmark's reference outputs, taking neither route on trust.

The flow references are computed twice, by the generator route
`flow(n) = (B_n(q), B_n(r))` and by the recursion route `step(flow(m))`, and
written only if the two agree term by term (`step(flow(m)) == flow(m + 2)`).

    PYTHONPATH=src python3 -m perfbench.make_refs
"""

from __future__ import annotations

import json
import sys

from perfbench.workloads import (
    FLOWS_REF,
    REFS,
    TOP_FLOW,
    VERIFY_REF,
    flow_texts,
    verify_pass,
)


def generator_route() -> dict:
    from cckp import hierarchy

    return {f"t_{n}": flow_texts(hierarchy.flow(n)) for n in range(1, TOP_FLOW + 1, 2)}


def recursion_route() -> dict:
    from cckp import hierarchy, recursion

    pair = hierarchy.flow(1)
    out = {"t_1": flow_texts(pair)}
    while pair.m < TOP_FLOW:
        pair = recursion.step(pair)
        out[f"t_{pair.m}"] = flow_texts(pair)
    return out


def build_refs() -> dict:
    """Both routes' flows (required equal) and the `verify all` JSON output."""
    by_generator, by_recursion = generator_route(), recursion_route()
    differing = sorted(k for k in by_generator if by_generator[k] != by_recursion.get(k))
    if differing or set(by_generator) != set(by_recursion):
        raise RuntimeError(f"generator and recursion routes differ at {differing}")
    verify = verify_pass()
    if verify.get("rc") != 0:
        raise RuntimeError(f"cckp verify all did not pass: {verify}")
    return {"flows": by_generator, "verify": verify["text"]}


def main() -> int:
    refs = build_refs()
    REFS.mkdir(exist_ok=True)
    (REFS / FLOWS_REF).write_text(json.dumps(refs["flows"], indent=1, sort_keys=True) + "\n")
    (REFS / VERIFY_REF).write_text(refs["verify"])
    print(f"wrote {REFS / FLOWS_REF} and {REFS / VERIFY_REF}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
