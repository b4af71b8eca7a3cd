"""Command-line front end: the parser and the verbs report, exhaust, random
and scan.  Every output layout is written by :mod:`maxreg.reporting`; a verb
runs one computation and prints what a writer returns.

Results go to stdout, progress to stderr, so output is pipeline-safe.
Exit codes: 0 clean, 2 usage error, 3 contract violation found (a violation
is a major finding or an artifact bug and must not look like success).
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._version import __version__
from .regularity import analyze
from .reporting import (
    analysis_csv,
    parse_set_literal,
    render_report_json,
    render_report_text,
    render_summary_json,
    scan_json,
    scan_text,
    summary_text,
)
# The benchmark's scan probe looks the writer up here, as ``cli.scan_to_dict``.
from .reporting import scan_to_dict  # noqa: F401
from .search import exhaustive, higher_derivative_scan, random_sets

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_VIOLATION"]


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _progress(stream):
    def emit(done: int, total: int) -> None:
        print(f"checked {done}/{total}", file=stream, flush=True)
    return emit


def _cmd_report(args: argparse.Namespace) -> int:
    analysis = analyze(parse_set_literal(args.set))
    if args.format == "csv":
        sys.stdout.write(analysis_csv(analysis))
    else:
        print((render_report_json if args.format == "json" else render_report_text)(analysis))
    violated = [v.kind for v in analysis.violations()]
    if violated:
        print(f"contract violated: {', '.join(violated)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _summary_out(summary, fmt: str) -> int:
    print(render_summary_json(summary) if fmt == "json" else summary_text(summary))
    return EXIT_VIOLATION if summary.violations else EXIT_OK


def _cmd_exhaust(args: argparse.Namespace) -> int:
    summary = exhaustive(args.length, workers=args.workers,
                         progress=_progress(sys.stderr))
    return _summary_out(summary, args.format)


def _cmd_random(args: argparse.Namespace) -> int:
    summary = random_sets(args.trials, args.length, args.density, args.seed,
                          workers=args.workers, progress=_progress(sys.stderr))
    return _summary_out(summary, args.format)


def _cmd_scan(args: argparse.Namespace) -> int:
    scan = higher_derivative_scan(parse_set_literal(args.set), args.order, args.truncation)
    print(scan_json(scan) if args.format == "json" else scan_text(scan))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``maxreg`` parser, built on first use and shared by later calls."""
    text_json = argparse.ArgumentParser(add_help=False)
    text_json.add_argument("--format", choices=("text", "json"), default="text",
                           help="output format")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes")

    parser = argparse.ArgumentParser(
        prog="maxreg",
        description="Exact second-difference regularity checks for the discrete "
                    "noncentered Hardy-Littlewood maximal function.",
        epilog="exit codes: 0 clean, 2 usage error, 3 contract violation found",
    )
    parser.add_argument("--version", action="version", version=f"maxreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full decomposition report for one set")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                   help="output format (csv is per-point data)")
    p.add_argument("set", help="set literal, e.g. '0,2,5-9'; put one that starts "
                               "with '-' after '--', e.g. '-- -7,-3,0,2'")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("exhaust", parents=[text_json, workers],
                       help="check every translation class of subsets of [0, L)")
    p.add_argument("length", type=int)
    p.set_defaults(func=_cmd_exhaust)

    p = sub.add_parser("random", parents=[text_json, workers],
                       help="check random subsets of [0, L)")
    p.add_argument("trials", type=int)
    p.add_argument("length", type=int)
    p.add_argument("density", help="inclusion probability in (0,1), e.g. 1/2")
    p.add_argument("seed", type=int)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("scan", parents=[text_json],
                       help="exact l1 norm of the order-k difference of M chi_A, "
                            "with its truncation to [-T, T]")
    p.add_argument("set", help="set literal; put one that starts with '-' after "
                               "'--', e.g. '-- -10,10 3 13'")
    p.add_argument("order", type=int, help="difference order k >= 3")
    p.add_argument("truncation", type=int, help="half-width T of the truncated sum")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:           # SetLiteralError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
