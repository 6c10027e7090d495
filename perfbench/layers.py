"""The `cckp` layers as the benchmark traces them, and their per-layer metrics.

Each span groups the public functions of one module that do one job.  The
memo tables are read from outside (`len()` and `cache_info()`), never written.
"""

from __future__ import annotations

import sys

from perfbench.tracer import SpanSpec

D = "cckp.diffring"
POLY = "cckp.diffring:DiffPoly"


def _terms(p) -> int:
    return len(getattr(p, "terms", ()))


def _observe_mul(stats, args, result, dur, self_s):
    if result is NotImplemented:
        return
    a, b = args
    stats.bump("products", _terms(a) * (_terms(b) if hasattr(b, "terms") else 1))
    stats.bump("terms_out", _terms(result))


def _observe_integrate(stats, args, result, dur, self_s):
    if any(key[1] for key, _ in args[0].terms):
        stats.bump("atom_calls", 1)
        stats.bump("atom_self_s", self_s)
    else:
        stats.bump("local_self_s", self_s)


def _observe_compose(stats, args, result, dur, self_s):
    stats.extra["max_depth"] = max(
        stats.extra.get("max_depth", 0),
        result.trunc_depth if not result.is_exact else 0,
    )
    stats.bump("terms_out", sum(_terms(c) for c in result.coeffs.values()))


def _observe_flow(stats, args, result, dur, self_s):
    if args[0] == 11:
        stats.bump("t11_s", dur)


def _observe_step(stats, args, result, dur, self_s):
    if args[0].m == 9:
        stats.bump("t9_s", dur)


SPANS = (
    SpanSpec("diffring.mul", ((POLY, "__mul__"), (POLY, "__rmul__")), _observe_mul),
    SpanSpec(
        "diffring.add",
        ((POLY, "__add__"), (POLY, "__radd__"), (POLY, "__sub__"),
         (POLY, "__rsub__"), (POLY, "__neg__")),
    ),
    SpanSpec("diffring.d_x", ((D, "d_x"),)),
    SpanSpec("diffring.integrate", ((D, "integrate"),), _observe_integrate),
    SpanSpec("diffring.antiderivative", ((D, "antiderivative"),)),
    SpanSpec("psido.compose", (("cckp.psido", "compose"),), _observe_compose),
    SpanSpec("psido.adjoint", (("cckp.psido", "adjoint"),)),
    SpanSpec("psido.apply", (("cckp.psido", "apply"),)),
    SpanSpec("nonlocal_ops.apply", (("cckp.nonlocal_ops", "apply"),)),
    SpanSpec(
        "nonlocal_ops.expand_to_psido",
        (("cckp.nonlocal_ops", "expand_to_psido"),),
    ),
    SpanSpec("hierarchy.lax_power", (("cckp.hierarchy", "lax_power"),)),
    SpanSpec("hierarchy.flow", (("cckp.hierarchy", "flow"),), _observe_flow),
    SpanSpec(
        "hierarchy.checks",
        tuple(
            ("cckp.hierarchy", name)
            for name in (
                "check_skew",
                "check_lax",
                "check_residue_coefficients",
                "check_generator_adjoint",
                "lax_time_derivative",
                "right_coefficients",
                "residue_identity",
                "prolong_flow",
            )
        ),
    ),
    SpanSpec("recursion.step", (("cckp.recursion", "step"),), _observe_step),
    SpanSpec(
        "recursion.reduce",
        tuple(
            ("cckp.recursion", name)
            for name in ("build_matrix", "reduce_matrix", "scaled_mkdv_operator")
        ),
    ),
    SpanSpec(
        "recursion.identities", (("cckp.recursion", "verify_aratyn_identities"),)
    ),
    SpanSpec(
        "grammar.render",
        tuple(
            ("cckp.grammar", name)
            for name in ("poly_text", "poly_json", "poly_latex")
        ),
    ),
    SpanSpec("cli.run_suite", (("cckp.cli", "run_suite"),)),
)

# Per-layer span metrics, each "<span>.<statistic>".  "calls", "self_s" and
# "errors" are SpanStats fields; any other statistic is an `observe` counter.
SPAN_METRICS = (
    "diffring.mul.calls", "diffring.mul.self_s",
    "diffring.mul.products", "diffring.mul.terms_out",
    "diffring.add.calls", "diffring.add.self_s",
    "diffring.d_x.calls", "diffring.d_x.self_s",
    "diffring.integrate.calls", "diffring.integrate.atom_calls",
    "diffring.integrate.self_s", "diffring.integrate.atom_self_s",
    "diffring.integrate.local_self_s",
    "diffring.antiderivative.calls", "diffring.antiderivative.self_s",
    "psido.compose.calls", "psido.compose.self_s",
    "psido.compose.max_depth", "psido.compose.terms_out",
    "psido.adjoint.calls", "psido.adjoint.self_s",
    "psido.apply.calls", "psido.apply.self_s",
    "nonlocal_ops.apply.calls", "nonlocal_ops.apply.self_s",
    "nonlocal_ops.expand_to_psido.calls", "nonlocal_ops.expand_to_psido.self_s",
    "hierarchy.lax_power.self_s",
    "hierarchy.flow.calls", "hierarchy.flow.t11_s",
    "hierarchy.checks.self_s",
    "recursion.step.calls", "recursion.step.self_s", "recursion.step.t9_s",
    "recursion.reduce.self_s",
    "recursion.identities.self_s",
    "grammar.render.calls", "grammar.render.self_s",
    "cli.run_suite.self_s",
)

LAYERS = ("diffring", "psido", "nonlocal_ops", "hierarchy", "recursion", "grammar", "cli")

MEMO_METRICS = (
    "diffring.memo.nf_atom_new",
    "diffring.memo.reducer_new",
    "diffring.memo.local_reducer_hits",
    "diffring.memo.local_reducer_misses",
)

TRACE_METRICS = ("trace.overhead_s", "trace.unattributed_s")

PER_LAYER = (
    SPAN_METRICS
    + MEMO_METRICS
    + tuple(f"{layer}.errors" for layer in LAYERS)
    + TRACE_METRICS
)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def span_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass, from the tracer's span totals."""
    out = {}
    for metric in SPAN_METRICS:
        span, _, stat = metric.rpartition(".")
        s = tracer.stats[span]
        out[metric] = getattr(s, stat) if stat in ("calls", "self_s") else s.extra.get(stat, 0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(
            s.errors for name, s in tracer.stats.items() if name.split(".")[0] == layer
        )
    return out


# -- memo tables, read from outside ---------------------------------------------

_DICT_TABLES = {"nf_atom": "_NF_ATOM_CACHE", "reducer": "_REDUCER_CACHE"}


def memo_snapshot() -> dict:
    """Sizes of the diffring memo tables and every `lru_cache` in `cckp`.

    A table that no longer exists under its name is reported as None.
    """
    diffring = sys.modules.get("cckp.diffring")
    out = {}
    for label, attr in _DICT_TABLES.items():
        table = getattr(diffring, attr, None)
        out[label] = len(table) if isinstance(table, dict) else None
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("cckp"):
            continue
        for attr, value in sorted(vars(module).items()):
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == name:
                ci = info()
                out[f"{name[5:]}.{attr}"] = [ci.hits, ci.misses, ci.currsize]
    return out


def memo_delta(before: dict, after: dict) -> tuple[dict, list]:
    """The memo metrics over a phase, and the tables found absent."""
    absent = [k for k in ("nf_atom", "reducer", "diffring._local_reducer") if after.get(k) is None]

    def diff(key, index=None):
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            return 0
        return b - a if index is None else b[index] - a[index]

    metrics = {
        "diffring.memo.nf_atom_new": diff("nf_atom"),
        "diffring.memo.reducer_new": diff("reducer"),
        "diffring.memo.local_reducer_hits": diff("diffring._local_reducer", 0),
        "diffring.memo.local_reducer_misses": diff("diffring._local_reducer", 1),
    }
    return metrics, absent
