"""Command line front end: run checks, print Hilbert tables, list the registry.

Each subcommand names its handler in the parser (``args.run``), and each
handler takes the parsed flags and the ``--config`` file (an empty
``UserConfig`` without the flag) and resolves its settings where it uses
them: a flag beats the file, and the file beats the default.  The parser is
built once per process, at the first ``main`` call.

Exit status: 0 when every selected check passes, 1 when any check fails,
2 for usage or parse errors (unknown check names, bad config files) and for
input over a size limit, and 3 for internal errors.  Reports go to stdout,
diagnostics to stderr.  A reader that closes stdout early (``| head -1``)
is no error: the rest goes to devnull, so the flush at exit stays silent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import checks
from .checks import Report, UnknownCheckError
from .config import (
    MAX_DEGREE,
    MAX_DENSE_WIDTH,
    ConfigError,
    UserConfig,
    check_basis_width,
    check_degree_bound,
    load_config,
)
from .intlinalg import DenseWidthError
from .presented import (
    BUILTIN_PRESENTATIONS,
    RingPresentation,
    eliminate_unit_generators,
    graded_components,
)

REPORT_VERSION = "1"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "config_echo", "results", "summary"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "config_echo": {
            "type": "object",
            "required": ["selection", "format", "max_degree", "max_degree_overrides"],
            "additionalProperties": False,
            "properties": {
                "selection": {"type": "string"},
                "format": {"type": "string", "enum": ["text", "json"]},
                "max_degree": {"type": ["integer", "null"]},
                "max_degree_overrides": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "verdict", "paper_anchor", "witnesses",
                             "elapsed_ms"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "verdict": {"type": "string",
                                "enum": ["pass", "fail", "error"]},
                    "paper_anchor": {"type": "string"},
                    "witnesses": {
                        "type": "object",
                        "additionalProperties": {"type": "string"},
                    },
                    "elapsed_ms": {"type": "number"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "error"],
            "additionalProperties": False,
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "error": {"type": "integer"},
            },
        },
    },
}


def _anchors() -> dict[str, str]:
    return {spec.name: spec.paper_anchor for spec in checks.list_checks()}


def render_report_json(report: Report, echo: dict) -> str:
    anchors = _anchors()
    payload = {
        "version": REPORT_VERSION,
        "config_echo": echo,
        "results": [
            {
                "name": r.name,
                "verdict": r.verdict,
                "paper_anchor": anchors[r.name],
                "witnesses": r.witness_dict(),
                "elapsed_ms": round(r.elapsed * 1000.0, 3),
            }
            for r in report.results
        ],
        "summary": report.counts,
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_report_text(report: Report, selection: str) -> str:
    lines = [f"# check report (selection: {selection})"]
    for r in report.results:
        lines.append(f"{r.name}: {r.verdict} ({r.elapsed * 1000.0:.1f} ms)")
        for label, value in r.witnesses:
            lines.append(f"    {label}: {value}")
    counts = report.counts
    lines.append(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                 f"{counts['error']} error")
    return "\n".join(lines)


def _emit(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _resolve_presentation(spec: str) -> RingPresentation:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in BUILTIN_PRESENTATIONS:
            raise ConfigError(f"unknown builtin presentation {name!r}; "
                              f"known: {', '.join(sorted(BUILTIN_PRESENTATIONS))}")
        return BUILTIN_PRESENTATIONS[name]()
    loaded = load_config(spec)
    if not loaded.presentations:
        raise ConfigError(f"config {spec!r} defines no presentation")
    if len(loaded.presentations) > 1:
        raise ConfigError(f"config {spec!r} defines several presentations "
                          f"({', '.join(sorted(loaded.presentations))}); "
                          f"define exactly one for hilbert")
    return next(iter(loaded.presentations.values()))


def cmd_check(args: argparse.Namespace, user: UserConfig) -> int:
    selection = "--all" if args.all else args.name
    output_format = args.format or user.output_format or "text"
    overrides = user.max_degree_overrides
    try:
        checks.validate_overrides(overrides)
        # --max-degree beats the config file's per-check bounds, as --format
        # beats its format: given the flag, every selected check runs to it.
        bounds = {} if args.max_degree is not None else overrides
        if args.all:
            report = checks.run_all(bounds, args.max_degree)
        else:
            bound = bounds.get(args.name, args.max_degree)
            report = Report((checks.run_check(args.name, bound),))
    except UnknownCheckError as exc:
        print(f"error: unknown check {exc.args[0]!r}; run 'pgl3chow list'",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output_format == "json":
        _emit(render_report_json(report, {
            "selection": selection, "format": output_format,
            "max_degree": args.max_degree, "max_degree_overrides": overrides}))
    else:
        _emit(render_report_text(report, selection))
    return 0 if report.all_passed else 1


def cmd_hilbert(args: argparse.Namespace, user: UserConfig) -> int:
    try:
        pres = _resolve_presentation(args.spec)
        check_basis_width(pres, args.max_degree)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Degrees 0..N read only the relations of degree at most N: the degree-d
    # part of the ideal is spanned by relation * monomial products of degree
    # d.  The rest are dropped before the elimination substitutes into them.
    low = tuple(rel for rel in pres.relations
                if (rel.weighted_degree() or 0) <= args.max_degree)
    pres = eliminate_unit_generators(RingPresentation(pres.generators, low))
    lines = []
    try:
        for component in graded_components(pres, args.max_degree, MAX_DENSE_WIDTH):
            lines.append(f"{component.degree}: {component.render()}")
    except DenseWidthError as exc:
        print(f"error: degree {len(lines)} leaves {exc.width} columns for the "
              f"dense elimination, over the limit of {MAX_DENSE_WIDTH}; lower "
              f"--max-degree", file=sys.stderr)
        return 2
    _emit("\n".join(lines))
    return 0


def cmd_list(args: argparse.Namespace, user: UserConfig) -> int:
    _emit("\n".join(f"{spec.name}: {spec.description} [anchor: {spec.paper_anchor}]"
                     for spec in checks.list_checks()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgl3chow",
        description="Exact verification of the computations behind the Chow "
                    "ring of the classifying stack of PGL3.")
    parser.add_argument("--config", metavar="PATH",
                        help="config file; its [options] section sets the "
                             "report format and per-check max-degree bounds")
    parser.set_defaults(max_degree=None)  # list has no --max-degree
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one check or the whole registry")
    which = p_check.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every check")
    which.add_argument("--name", metavar="ID", help="run a single check")
    p_check.add_argument("--max-degree", type=int, metavar="N",
                         help="degree bound for every selected check, over any "
                              f"bound in the config file (0 to {MAX_DEGREE})")
    p_check.add_argument("--format", choices=("text", "json"),
                         help="report format (default text)")
    p_check.set_defaults(run=cmd_check)

    p_hilbert = sub.add_parser(
        "hilbert", help="graded components of a presented ring")
    p_hilbert.add_argument("--spec", required=True, metavar="PATH|builtin:NAME",
                           help="presentation source, e.g. builtin:Rstar")
    p_hilbert.add_argument("--max-degree", type=int, required=True, metavar="N",
                           help=f"last degree to print (0 to {MAX_DEGREE})")
    p_hilbert.set_defaults(run=cmd_hilbert)

    p_list = sub.add_parser("list", help="list the check registry with anchors")
    p_list.set_defaults(run=cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        user = UserConfig() if args.config is None else load_config(args.config)
        if args.max_degree is not None:
            check_degree_bound(args.max_degree, "--max-degree")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, user)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
