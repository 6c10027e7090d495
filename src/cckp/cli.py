"""Command-line surface: derive flows, run the verification suite, export.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage,
configuration or resource errors.  Flags override environment variables
(CCKP_DEPTH, CCKP_MAX_FLOW, CCKP_FORMAT, CCKP_NESTING_LIMIT), which override
the defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import hierarchy, recursion
from .diffring import DiffPoly, scale_substitute, substitute_r_to_q
from .errors import DepthExhausted, EngineError
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
    atom_nesting_limit: int = 2

    def __post_init__(self):
        if self.max_flow % 2 == 0 or self.max_flow <= 0:
            raise ValueError("max flow index must be a positive odd integer")
        if self.depth < self.max_flow + 1:
            raise ValueError("depth must be at least max flow index + 1")
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
    nesting = (
        args.nesting_limit
        if args.nesting_limit is not None
        else _env_int("NESTING_LIMIT")
    )
    defaults = RunConfig()
    return RunConfig(
        depth=depth if depth is not None else defaults.depth,
        max_flow=max_flow if max_flow is not None else defaults.max_flow,
        output_format=fmt if fmt else defaults.output_format,
        atom_nesting_limit=(
            nesting if nesting is not None else defaults.atom_nesting_limit
        ),
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


def _depth_error(exc: DepthExhausted, config: RunConfig) -> int:
    return _error(f"{exc}; raise --depth (currently {config.depth})")


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
    if n % 2 == 0 or n <= 0:
        return _error("flow index must be a positive odd integer")
    if n > config.max_flow:
        return _error(
            f"flow index {n} exceeds the configured maximum {config.max_flow}"
        )
    try:
        generator = hierarchy.bn(n, config.depth)
        fp = hierarchy.flow(n, config.depth)
    except DepthExhausted as exc:
        return _depth_error(exc, config)
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


def _report(name: str, lhs: DiffPoly, rhs: DiffPoly) -> CheckReport:
    diff = lhs - rhs
    return CheckReport.of(name, () if diff.is_zero else ((name, diff),))


def _literal_report(name: str, label: str, got, literal) -> CheckReport:
    """Structural equality with a literal form; a mismatch shows as `label: 0`."""
    return CheckReport.of(
        name, () if got == literal else ((label, DiffPoly.zero()),)
    )


def _suite_skew(config: RunConfig):
    return [hierarchy.check_skew(config.depth)]


def _suite_lax(config: RunConfig):
    return [hierarchy.check_lax(3, 2), hierarchy.check_lax(5, 2)]


def _suite_recursion(config: RunConfig):
    out = []
    limit = config.atom_nesting_limit
    step1 = recursion.step(hierarchy.flow(1), nesting_limit=limit)
    f3 = hierarchy.flow(3)
    out.append(_report("step t_1 -> t_3 (q)", step1.q_t, f3.q_t))
    out.append(_report("step t_1 -> t_3 (r)", step1.r_t, f3.r_t))
    step3 = recursion.step(f3, nesting_limit=limit)
    f5 = hierarchy.flow(5)
    out.append(_report("step t_3 -> t_5 (q)", step3.q_t, f5.q_t))
    out.append(_report("step t_3 -> t_5 (r)", step3.r_t, f5.r_t))
    two = recursion.step(step1, nesting_limit=limit)
    out.append(_report("two-step t_1 -> t_5 (q)", two.q_t, f5.q_t))
    out.append(_report("two-step t_1 -> t_5 (r)", two.r_t, f5.r_t))
    step5 = recursion.step(f5, nesting_limit=limit)
    f7 = hierarchy.flow(7)
    out.append(_report("step t_5 -> t_7 (q)", step5.q_t, f7.q_t))
    out.append(_report("step t_5 -> t_7 (r)", step5.r_t, f7.r_t))
    return out


def _suite_identities(config: RunConfig):
    probes = (
        DiffPoly.jet("q"),
        DiffPoly.jet("r"),
        DiffPoly.jet("q") * DiffPoly.jet("r"),
        DiffPoly.jet("q", 1),
    )
    out = []
    for n in (1, 3, 5):
        collected = [
            (f"f={f!r}, g={g!r}: {label}", diff)
            for f in probes
            for g in probes
            for label, diff in recursion.verify_aratyn_identities(
                n, f, g, depth=4
            ).residuals
        ]
        out.append(CheckReport.of(f"recursion-identities t_{n}", collected))
    return out


def _suite_residues(config: RunConfig):
    return [hierarchy.check_residue_coefficients(m) for m in (1, 3, 5)]


def _suite_reduction(config: RunConfig):
    out = []
    reduced = recursion.reduce_matrix()
    literal = recursion.mkdv_recursion_literal()
    out.append(
        _literal_report(
            "reduced operator literal form", "reduced form", reduced, literal
        )
    )
    out.append(
        CheckReport.of(
            "reduced operator series (depth 6)",
            by_order(
                residuals(
                    expand_to_psido(reduced, 6), expand_to_psido(literal, 6), 6
                )
            ),
        )
    )
    qx = DiffPoly.jet("q", 1)
    mkdv3 = substitute_r_to_q(hierarchy.flow(3).q_t)
    mkdv5 = substitute_r_to_q(hierarchy.flow(5).q_t)
    out.append(_report("reduced step t_1 -> t_3", nl_apply(reduced, qx), mkdv3))
    out.append(
        _report("reduced step t_3 -> t_5", nl_apply(reduced, mkdv3), mkdv5)
    )
    for m in (1, 3):
        fp = hierarchy.flow(m)
        stepped = recursion.step(fp, nesting_limit=config.atom_nesting_limit)
        out.append(
            _report(
                f"reduction commutes with step at t_{m}",
                substitute_r_to_q(stepped.q_t),
                nl_apply(reduced, substitute_r_to_q(fp.q_t)),
            )
        )
    scaled = recursion.scaled_mkdv_operator()
    scaled_literal = recursion.scaled_mkdv_literal()
    out.append(
        _literal_report(
            "scaled operator literal form",
            "scaled form",
            scaled,
            scaled_literal,
        )
    )
    lam_sq = Fraction(1, 12)
    out.append(
        _report(
            "scaled third-order flow",
            scale_substitute(mkdv3, lam_sq),
            nl_apply(scaled_literal, DiffPoly.jet("u", 1)),
        )
    )
    u_mkdv3 = scale_substitute(mkdv3, lam_sq)
    out.append(
        _report(
            "scaled fifth-order flow",
            scale_substitute(mkdv5, lam_sq),
            nl_apply(scaled_literal, u_mkdv3),
        )
    )
    return out


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
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](config))
    return checks


def cmd_verify(suite: str, config: RunConfig, out_path=None) -> int:
    try:
        checks = run_suite(suite, config)
    except EngineError as exc:
        return _error(str(exc))
    passed = all(c.passed for c in checks)
    if config.output_format == "json":
        payload = {
            "suite": suite,
            "config": {
                "depth": config.depth,
                "max_flow": config.max_flow,
                "atom_nesting_limit": config.atom_nesting_limit,
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
    try:
        if target == "recursion-matrix":
            mat = recursion.build_matrix()
            content = {
                name: render_operator(getattr(mat, name))
                for name in ("r11", "r12", "r21", "r22")
            }
        elif target == "lax":
            content = render_psido(hierarchy.lax_operator(config.depth))
        elif target == "bn":
            content = render_psido(hierarchy.bn(n, config.depth))
        else:
            return _error(f"unknown export target {target!r}")
    except DepthExhausted as exc:
        return _depth_error(exc, config)
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
        p.add_argument(
            "--nesting-limit", type=int, default=None, dest="nesting_limit"
        )

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
