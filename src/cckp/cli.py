"""Command-line surface: derive flows, run the verification suite, export.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage,
configuration or resource errors.  Flags override environment variables
(CCKP_DEPTH, CCKP_MAX_FLOW, CCKP_FORMAT), which override the defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import diffring, hierarchy, recursion
from .diffring import DiffPoly, scale_substitute, substitute_r_to_q
from .errors import EngineError, require_int
from .grammar import poly_json, poly_latex, poly_text
from .hierarchy import CheckReport, by_order
from .nonlocal_ops import (
    apply as nl_apply,
    expand_to_psido,
    operator_json,
    operator_latex,
    operator_text,
)
from .psido import psido_json, psido_latex, psido_text, residuals

SCHEMA_VERSION = 1

_ENV_PREFIX = "CCKP_"


@dataclass(frozen=True)
class RunConfig:
    depth: int = 8
    max_flow: int = 7
    output_format: str = "text"

    def __post_init__(self):
        require_int(self.depth, "depth", 1)
        require_int(self.max_flow, "max_flow", 1)
        if self.max_flow % 2 == 0:
            raise ValueError("max flow index must be a positive odd integer")
        if self.output_format not in ("text", "latex", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _env_int(name: str):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {_ENV_PREFIX}{name}: {exc}")


def build_config(args) -> RunConfig:
    depth = args.depth if args.depth is not None else _env_int("DEPTH")
    max_flow = (
        args.max_flow if args.max_flow is not None else _env_int("MAX_FLOW")
    )
    fmt = args.format or os.environ.get(_ENV_PREFIX + "FORMAT")
    defaults = RunConfig()
    return RunConfig(
        depth=depth if depth is not None else defaults.depth,
        max_flow=max_flow if max_flow is not None else defaults.max_flow,
        output_format=fmt if fmt else defaults.output_format,
    )


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out_path) -> int:
    """Write to `out_path`, or to stdout without one; 2 if it is unwritable."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(f"cannot write output: {exc}")
    return 0


def _emit_json(payload: dict, out_path) -> int:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _flow_index_problem(n: int, config: RunConfig):
    """Why n is not a usable flow index, or None when it is."""
    if n % 2 == 0 or n <= 0:
        return "flow index must be a positive odd integer"
    if n > config.max_flow:
        return f"flow index {n} exceeds the configured maximum {config.max_flow}"
    return None


def _latex_document(body: str) -> str:
    return (
        "\\documentclass{article}\n"
        "\\usepackage{amsmath}\n"
        "\\begin{document}\n"
        + body
        + "\n\\end{document}\n"
    )


# -- derive ---------------------------------------------------------------------


def cmd_derive(n: int, config: RunConfig, out_path=None) -> int:
    if problem := _flow_index_problem(n, config):
        return _error(problem)
    generator = hierarchy.bn(n)
    fp = hierarchy.flow(n)
    if config.output_format == "json":
        return _emit_json(
            {
                "n": n,
                "generator": psido_json(generator),
                "flow": {"q_t": poly_json(fp.q_t), "r_t": poly_json(fp.r_t)},
            },
            out_path,
        )
    if config.output_format == "latex":
        return _emit(
            f"\\begin{{align*}}\n"
            f"B_{{{n}}} &= {psido_latex(generator)} \\\\\n"
            f"q_{{t_{{{n}}}}} &= {poly_latex(fp.q_t)} \\\\\n"
            f"r_{{t_{{{n}}}}} &= {poly_latex(fp.r_t)}\n"
            f"\\end{{align*}}\n",
            out_path,
        )
    return _emit(
        f"B_{n} = {psido_text(generator)}\n"
        f"q_t{n} = {poly_text(fp.q_t)}\n"
        f"r_t{n} = {poly_text(fp.r_t)}\n",
        out_path,
    )


# -- verify -----------------------------------------------------------------------
#
# Each suite yields its checks in order.  --max-flow sets every range: the
# step, Lax, identity and residue checks run at odd indices up to
# max_flow - 2 (a step's image is t_(max_flow)), and the reduced steps start
# from odd indices up to max_flow - 4.  Every suite takes the run's config
# and its table of steps, `steps`, which the recursion and reduction suites
# share, so each flow is stepped once.


def _odd(first: int, last: int) -> range:
    """The odd flow indices from `first` to `last`, both included."""
    return range(first, last + 1, 2)


def _report(name: str, lhs: DiffPoly, rhs: DiffPoly) -> CheckReport:
    diff = lhs - rhs
    return CheckReport.of(name, () if diff.is_zero else ((name, diff),))


def _literal_report(name: str, label: str, got, literal) -> CheckReport:
    """Structural equality with a literal form; a mismatch shows as `label: 0`."""
    return CheckReport.of(
        name, () if got == literal else ((label, DiffPoly.zero()),)
    )


def _step_of(steps: dict, m: int):
    """step(flow(m)), computed once per run."""
    if m not in steps:
        steps[m] = recursion.step(hierarchy.flow(m))
    return steps[m]


def _suite_skew(config: RunConfig, steps: dict):
    yield hierarchy.check_skew(config.depth)


def _suite_lax(config: RunConfig, steps: dict):
    for n in _odd(3, config.max_flow - 2):
        yield hierarchy.check_lax(n, 2)


def _flow_reports(name: str, got, want):
    yield _report(f"{name} (q)", got.q_t, want.q_t)
    yield _report(f"{name} (r)", got.r_t, want.r_t)


def _suite_recursion(config: RunConfig, steps: dict):
    for m in _odd(1, config.max_flow - 2):
        target = hierarchy.flow(m + 2)
        name = f"step t_{m} -> t_{m + 2}"
        yield from _flow_reports(name, _step_of(steps, m), target)
        if m == 3:
            two = recursion.step(_step_of(steps, 1))
            yield from _flow_reports("two-step t_1 -> t_5", two, target)


def _suite_identities(config: RunConfig, steps: dict):
    q, r = DiffPoly.jet("q"), DiffPoly.jet("r")
    probes = (q, r, q * r, DiffPoly.jet("q", 1))
    for n in _odd(1, config.max_flow - 2):
        collected = [
            (f"f={f!r}, g={g!r}: {label}", diff)
            for f in probes
            for g in probes
            for label, diff in recursion.verify_aratyn_identities(
                n, f, g, depth=4
            ).residuals
        ]
        yield CheckReport.of(f"recursion-identities t_{n}", collected)


def _suite_residues(config: RunConfig, steps: dict):
    for m in _odd(1, config.max_flow - 2):
        yield hierarchy.check_residue_coefficients(m)


# Scaled-flow labels; an order past these is named by its flow index.
_ORDINALS = {3: "third", 5: "fifth", 7: "seventh", 9: "ninth", 11: "eleventh"}


def _suite_reduction(config: RunConfig, steps: dict):
    reduced = recursion.reduce_matrix()
    literal = recursion.mkdv_recursion_literal()
    yield _literal_report(
        "reduced operator literal form", "reduced form", reduced, literal
    )
    yield CheckReport.of(
        "reduced operator series (depth 6)",
        by_order(
            residuals(
                expand_to_psido(reduced, 6), expand_to_psido(literal, 6), 6
            )
        ),
    )
    sources = _odd(1, config.max_flow - 4)
    # The mKdV flows: the q component of each t_n flow under q = r.
    mkdv = {
        n: substitute_r_to_q(hierarchy.flow(n).q_t)
        for n in _odd(1, config.max_flow - 2)
    }
    images = {m: nl_apply(reduced, mkdv[m]) for m in sources}
    for m in sources:
        yield _report(
            f"reduced step t_{m} -> t_{m + 2}", images[m], mkdv[m + 2]
        )
    for m in sources:
        yield _report(
            f"reduction commutes with step at t_{m}",
            substitute_r_to_q(_step_of(steps, m).q_t),
            images[m],
        )
    scaled_literal = recursion.scaled_mkdv_literal()
    yield _literal_report(
        "scaled operator literal form",
        "scaled form",
        recursion.scaled_mkdv_operator(),
        scaled_literal,
    )
    lam_sq = recursion.LAMBDA_SQ
    for m in sources:
        n = m + 2
        word = _ORDINALS.get(n, f"t_{n}")
        yield _report(
            f"scaled {word}-order flow",
            scale_substitute(mkdv[n], lam_sq),
            nl_apply(scaled_literal, scale_substitute(mkdv[m], lam_sq)),
        )


_SUITE_RUNNERS = {
    "skew": _suite_skew,
    "lax": _suite_lax,
    "recursion": _suite_recursion,
    "identities": _suite_identities,
    "residues": _suite_residues,
    "reduction": _suite_reduction,
}

SUITES = ("all", *_SUITE_RUNNERS)


def run_suite(suite: str, config: RunConfig):
    names = tuple(_SUITE_RUNNERS) if suite == "all" else (suite,)
    steps = {}
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](config, steps))
    return checks


def cmd_verify(suite: str, config: RunConfig, out_path=None) -> int:
    if config.output_format == "latex":
        return _error("verify writes text or json, not latex")
    try:
        checks = run_suite(suite, config)
    except EngineError as exc:
        return _error(str(exc))
    if not checks:
        return _error(
            f"suite {suite!r} has no check up to t_{config.max_flow}; "
            "raise --max-flow"
        )
    passed = all(c.passed for c in checks)
    if config.output_format == "json":
        payload = {
            "suite": suite,
            "config": {
                "depth": config.depth,
                "max_flow": config.max_flow,
                "atom_nesting_limit": diffring._NESTING_LIMIT,
            },
            "passed": passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residuals": [
                        {"label": label, "value": poly_text(diff)}
                        for label, diff in c.residuals
                    ],
                }
                for c in checks
            ],
        }
        code = _emit_json(payload, out_path)
    else:
        lines = []
        for c in checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
            for label, diff in c.residuals:
                lines.append(f"    {label}: {poly_text(diff)}")
        lines.append(f"result: {'PASS' if passed else 'FAIL'}")
        code = _emit("\n".join(lines) + "\n", out_path)
    return code or (0 if passed else 1)


# -- export ------------------------------------------------------------------------

# Operator renderers by output format: (PsiDO, integro-differential operator).
_RENDERERS = {
    "text": (psido_text, operator_text),
    "latex": (psido_latex, operator_latex),
    "json": (psido_json, operator_json),
}


def cmd_export(target: str, n, config: RunConfig, out_path=None) -> int:
    fmt = config.output_format
    render_psido, render_operator = _RENDERERS[fmt]
    if target == "bn" and n is None:
        return _error("export bn needs a flow index")
    if target != "bn" and n is not None:
        return _error(f"export {target} takes no flow index")
    if target == "bn" and (problem := _flow_index_problem(n, config)):
        return _error(problem)
    if target == "recursion-matrix":
        mat = recursion.build_matrix()
        content = {
            name: render_operator(getattr(mat, name))
            for name in ("r11", "r12", "r21", "r22")
        }
    elif target == "lax":
        content = render_psido(hierarchy.lax_operator(config.depth))
    elif target == "bn":
        content = render_psido(hierarchy.bn(n))
    else:
        return _error(f"unknown export target {target!r}")
    if fmt == "json":
        return _emit_json({"target": target, "content": content}, out_path)
    if fmt == "text":
        if target == "recursion-matrix":
            content = "\n".join(f"{k} = {v}" for k, v in content.items())
        return _emit(content + "\n", out_path)
    if target == "recursion-matrix":
        body = "\\begin{align*}\n" + " \\\\\n".join(
            f"R_{{{k[1:]}}} &= {v}" for k, v in content.items()
        ) + "\n\\end{align*}"
    else:
        label = "L" if target == "lax" else f"B_{{{n}}}"
        body = f"\\[ {label} = {content} \\]"
    return _emit(_latex_document(body), out_path)


# -- entry point ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cckp",
        description=(
            "Exact symbolic calculus for the 1-constrained CKP hierarchy, "
            "its recursion operator, and the mKdV reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--max-flow", type=int, default=None, dest="max_flow")
        p.add_argument(
            "--format", choices=("text", "latex", "json"), default=None
        )
        p.add_argument("--out", default=None)

    d = sub.add_parser("derive", help="print a flow generator and its flow")
    d.add_argument("n", type=int)
    common(d)

    v = sub.add_parser("verify", help="run verification checks")
    v.add_argument("suite", choices=SUITES)
    common(v)

    e = sub.add_parser("export", help="export operators")
    e.add_argument("target", choices=("recursion-matrix", "lax", "bn"))
    e.add_argument("n", type=int, nargs="?", default=None)
    common(e)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        return _error(str(exc))
    if args.command == "derive":
        return cmd_derive(args.n, config, args.out)
    if args.command == "verify":
        return cmd_verify(args.suite, config, args.out)
    if args.command == "export":
        return cmd_export(args.target, args.n, config, args.out)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
