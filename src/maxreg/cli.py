"""Command-line front end: report, exhaust, random, scan.

Results go to stdout, progress to stderr, so output is pipeline-safe.
Exit codes: 0 clean, 2 usage error, 3 contract violation found (a violation
is a major finding or an artifact bug and must not look like success).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from ._version import __version__
from .regularity import analyze
from .reporting import (
    SCHEMA_VERSION,
    analysis_csv,
    canonical_set_literal,
    parse_set_literal,
    render_report_json,
    render_report_text,
)
from .search import (
    GeneralRatioRecord,
    SearchSummary,
    TruncatedScan,
    exhaustive,
    higher_derivative_scan,
    random_sets,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_VIOLATION"]


# ---------------------------------------------------------------------------
# Serialization of sweep results
# ---------------------------------------------------------------------------

def _record_dict(record) -> dict | None:
    if record is None:
        return None
    if isinstance(record, GeneralRatioRecord):
        head = {"offset": record.offset, "values": list(record.function_values),
                "source_second_norm": str(record.source_second_norm)}
    else:
        head = {"set": list(record.set.elements),
                "chi_second_norm": str(record.chi_second_norm)}
    return {**head, "max_second_norm": str(record.max_second_norm),
            "ratio": str(record.ratio)}


def _stat_value(key: str, value):
    if key == "max_by_span":
        return {str(span): _record_dict(rec) for span, rec in value.items()}
    return str(value) if isinstance(value, Fraction) else value


def summary_to_dict(summary: SearchSummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "instances_checked": summary.instances_checked,
        "max_record": _record_dict(summary.max_record),
        "violations": [asdict(v) for v in summary.violations],
        "parameters": summary.parameters,
        "stats": {key: _stat_value(key, value)
                  for key, value in summary.stats.items()},
    }


def summary_text(summary: SearchSummary) -> str:
    lines = [f"instances checked  {summary.instances_checked}"]
    record = summary.max_record
    if record is None:
        lines.append("max record         none (no instances)")
    else:
        lines.append(f"max ratio          {record.ratio} "
                     f"at {{{canonical_set_literal(record.set)}}}")
    by_span = summary.stats.get("max_by_span")
    if by_span and summary.parameters.get("mode") == "exhaustive":
        best = None
        for length in range(1, summary.parameters["length"] + 1):
            rec = by_span.get(length - 1)       # the one span that length adds
            best = rec if best is None or (rec and rec.ratio > best.ratio) else best
            if best is not None:
                lines.append(f"  L={length:<2d} max ratio {best.ratio} "
                             f"at {{{canonical_set_literal(best.set)}}}")
    lines += [f"{key:<18} {value}" for key, value in summary.stats.items()
              if key != "max_by_span"]
    violations = summary.violations
    lines.append(f"VIOLATIONS         {len(violations)}" if violations else "violations         none")
    lines += [f"  {v.kind}: {json.dumps(v.subject)} {json.dumps(v.details)}" for v in violations]
    lines.append(f"parameters         {json.dumps(summary.parameters)}")
    return "\n".join(lines)


_SCAN = "{\n%s\n}" % ",\n".join(f'  "{key}": {value}' for key, value in [
    ("schema_version", "%d"), ("tool_version", '"%s"'), ("set", "[\n    %s\n  ]"),
    ("order", "%d"), ("truncation", "%d"), ("value", '"%s"'), ("truncated_value", '"%s"')])


def scan_json(scan: TruncatedScan) -> str:
    """The scan as JSON in ``json.dumps(..., indent=2)`` bytes, filled into one
    template: a scan's set is never empty, and every string in it is plain ASCII."""
    return _SCAN % (SCHEMA_VERSION, __version__, ",\n    ".join(map(str, scan.set.elements)),
                    scan.order, scan.truncation, scan.value, scan.truncated_value)


def scan_to_dict(scan: TruncatedScan) -> dict:
    """The JSON scan as a dict: its layout is the template's."""
    return json.loads(scan_json(scan))


def scan_text(scan: TruncatedScan) -> str:
    return "\n".join([
        f"set              {{{canonical_set_literal(scan.set)}}}",
        f"order            {scan.order}",
        f"truncation       {scan.truncation}",
        f"value            {scan.value}",
        f"truncated value  {scan.truncated_value}",
        "value sums over all of Z, truncated value over [-T, T]",
    ])


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
    elif args.format == "json":
        print(render_report_json(analysis))
    else:
        print(render_report_text(analysis, paper_accounting=args.paper_accounting))
    violated = [v.kind for v in analysis.violations()]
    if violated:
        print(f"contract violated: {', '.join(violated)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _summary_out(summary: SearchSummary, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(summary_to_dict(summary), indent=2))
    else:
        print(summary_text(summary))
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
    p.add_argument("--paper-accounting", action="store_true",
                   help="also show the boundary bound with each limit term bounded by 1")
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
