"""Set literals and every output layout: per-set reports, sweep summaries
and scans, in text and in JSON (and per-point CSV for a report).

Every numeric field in machine output is an exact rational rendered as a
``p/q`` string (plain integer when q = 1); floats never appear.  Each JSON
layout carries ``schema_version``, read only here, so downstream plotting can
pin itself to it.  The report and scan layouts are templates that one
function, :func:`_layout`, lays out as ``json.dumps(..., indent=2)`` does:
:func:`render_report_json` and :func:`scan_json` fill them, and
:func:`report_to_dict` and :func:`scan_to_dict` are their parses.  The report
of a set is its :class:`~maxreg.regularity.Analysis` itself: the writers read
its integers and build no `Fraction` per point.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import asdict
from fractions import Fraction
from math import gcd

from ._version import __version__
from .lattice import IndexSet
from .regularity import PLUS, MINUS, Analysis, analyze
from .search import GeneralRatioRecord, SearchSummary, TruncatedScan

SCHEMA_VERSION = 3

__all__ = [
    "SCHEMA_VERSION", "SetLiteralError", "parse_set_literal",
    "canonical_set_literal", "build_report", "report_to_dict",
    "render_report_text", "render_report_json", "render_report_csv",
    "analysis_csv", "summary_to_dict", "summary_text", "render_summary_json",
    "scan_json", "scan_to_dict", "scan_text",
]


# ---------------------------------------------------------------------------
# Set literals
# ---------------------------------------------------------------------------

class SetLiteralError(ValueError):
    """Malformed set literal; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ITEM = re.compile(r"\s*(-?\d+)(?:-(-?\d+))?\s*")


def parse_set_literal(text: str) -> IndexSet:
    """Parse 'a,b,c-d,...' where items are integers or inclusive ranges.

    Negative endpoints carry an explicit sign ('-5--2' is the range -5..-2).
    Duplicates merge.  Empty input, malformed items, and inverted ranges
    raise :class:`SetLiteralError` with the offending position.
    """
    if not text.strip():
        raise SetLiteralError("empty set literal", 0)
    elements: set[int] = set()
    pieces = text.split(",")
    for i, piece in enumerate(pieces):
        m = _ITEM.fullmatch(piece)
        if m is not None and m[2] is None:
            elements.add(int(m[1]))
        elif m is not None and (first := int(m[1])) <= (last := int(m[2])):
            elements.update(range(first, last + 1))
        else:
            item = piece.strip()
            offset = sum(map(len, pieces[:i])) + i + (piece.index(item) if item else 0)
            fault = "malformed item" if m is None else "inverted range"
            raise SetLiteralError(f"{fault} {item!r}" if item else "empty item", offset)
    return IndexSet(tuple(sorted(elements)))


def canonical_set_literal(a: Iterable[int]) -> str:
    """Shortest run-merged literal of increasing integers; re-parses to them."""
    runs: list[tuple[int, int]] = []
    for x in a:
        if runs and x == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in runs)


# ---------------------------------------------------------------------------
# Full per-set report
# ---------------------------------------------------------------------------

def build_report(a: IndexSet) -> Analysis:
    """The analysis of ``a``, which every writer below reads."""
    return analyze(a)


def _over(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for q > 0, without building the `Fraction`."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _over_each(values: tuple[int, ...], d: int) -> list[str]:
    """``_over(v, d)`` for each v; a profile repeats few distinct values."""
    text = {v: _over(v, d) for v in set(values)}
    return list(map(text.__getitem__, values))


def _layout(fields) -> str:
    """A JSON object template as ``json.dumps(..., indent=2)`` lays it out, one
    ``(key, value format)`` pair per top-level field."""
    return "{\n%s\n}" % ",\n".join(f'  "{key}": {value}' for key, value in fields)


# The JSON report.  Every string in it is plain ASCII (version, literals,
# rationals, class names), so none is escaped; a report always has a chain
# and a profile value.
_LIST = "[\n    %s\n  ]"
_REPORT = _layout([
    ("schema_version", "%d"), ("tool_version", '"%s"'), ("input", '"%s"'), ("set", "%s"),
    ("chi_second_norm", '"%d"'), ("max_second_norm", '"%s"'), ("ratio", '"%s"'),
    ("s_minus", "%s"), ("left_boundary", "%s"), ("right_boundary", "%s"), ("chains", _LIST),
    ("funeq_rhs", '"%s"'), ("funeq_rhs_limit_bounded", '"%s"'), ("lemma1", '"%s"'),
    ("lemma1_violations", "%s"), ("chi_first_norm", '"%d"'), ("max_first_variation", '"%s"'),
    ("window", "[\n    %d,\n    %d\n  ]"), ("profile_values", '[\n    "%s"\n  ]')])
_CHAIN = '{\n      "kind": "%s",\n      "start": %d,\n      "end": %d\n    }'


def _ints(xs: tuple[int, ...]) -> str:
    """A list of ints one level into a layout, as ``json.dumps`` lays it out."""
    return _LIST % ",\n    ".join(map(str, xs)) if xs else "[]"


def render_report_json(an: Analysis) -> str:
    """The JSON report, ``json.dumps(report_to_dict(an), indent=2)`` byte for
    byte, filled into one template straight from the analysis integers; its
    boundary bound ``funeq_rhs`` is the second norm (``regularity._boundary_sum``)."""
    d, outside = an.denominator, an.lemma1_violations
    return _REPORT % (
        SCHEMA_VERSION, __version__,
        canonical_set_literal(an.set), _ints(an.set.elements), an.chi_second_norm,
        _over(an.second_norm, d), _over(an.second_norm, d * an.chi_second_norm),
        _ints(an.s_minus), _ints(an.left_boundary), _ints(an.right_boundary),
        ",\n    ".join([_CHAIN % chain for chain in an.chain_bounds()]),
        _over(an.second_norm, d), _over(an.second_norm + 2 * d, d),
        "violated" if outside else "ok", _ints(outside),
        an.chi_first_norm, _over(an.variation, d), an.lo, an.hi,
        '",\n    "'.join(_over_each(an.scaled, d)))


def report_to_dict(an: Analysis) -> dict:
    """The JSON report as a dict: its layout is the template's."""
    return json.loads(render_report_json(an))


def render_report_text(an: Analysis) -> str:
    """The text report.  Its boundary bound is exact, the second norm again; the
    JSON's ``funeq_rhs_limit_bounded`` bounds each vanishing limit term by 1."""
    d, outside = an.denominator, an.lemma1_violations
    return "\n".join([
        f"set               {canonical_set_literal(an.set)}",
        f"window            [{an.lo}, {an.hi}]",
        f"||chi''||_1       {an.chi_second_norm}",
        f"||(M chi)''||_1   {_over(an.second_norm, d)}",
        f"ratio             {_over(an.second_norm, d * an.chi_second_norm)}",
        f"S_minus           {{{canonical_set_literal(an.s_minus)}}}",
        f"left boundary     {{{canonical_set_literal(an.left_boundary)}}}",
        f"right boundary    {{{canonical_set_literal(an.right_boundary)}}}",
        "chains            " + " ".join(
            f"{kind}[{start},{end}]" for kind, start, end in an.chain_bounds()),
        f"boundary bound    {_over(an.second_norm, d)}",
        f"lemma 1           {'VIOLATED at ' + canonical_set_literal(outside) if outside else 'ok'}",
        f"||chi'||_1        {an.chi_first_norm}",
        f"var M chi         {_over(an.variation, d)}",
        f"tool version      {__version__}",
    ])


def render_report_csv(a: IndexSet) -> str:
    """:func:`analysis_csv` of the analysis of ``a``."""
    return analysis_csv(analyze(a))


def _best_average(windows) -> Fraction:
    """The largest count / length over (count, length) pairs."""
    p, q = 0, 1
    for count, length in windows:
        if count * q > p * length:
            p, q = count, length
    return Fraction(p, q)


def analysis_csv(an: Analysis) -> str:
    """Per-point rows over the analysis window: n, value, second diff, class.

    Each edge row needs M chi_A one point beyond the window.  Outside the
    hull [a, b] the best window at n has n as one end and an element of A as
    the other, so M(a-2) and M(b+2) are maxima over A alone.
    """
    d, v, elements = an.denominator, an.scaled, an.set.elements
    left = _best_average((j + 1, x - an.lo + 2) for j, x in enumerate(elements))
    right = _best_average((len(elements) - j, an.hi + 2 - x) for j, x in enumerate(elements))
    seconds = [str(Fraction(v[1] - 2 * v[0], d) + left),
               *_over_each(an.second, d),
               str(Fraction(v[-2] - 2 * v[-1], d) + right)]
    rows = ["n,value,second_difference,class"]
    for n, value, c2 in zip(range(an.lo, an.hi + 1), _over_each(v, d), seconds):
        # a rational prints with a leading '-' exactly when it is negative
        rows.append(f"{n},{value},{c2},{MINUS if c2[0] == '-' else PLUS}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Sweep summaries and scans
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


def render_summary_json(summary: SearchSummary) -> str:
    return json.dumps(summary_to_dict(summary), indent=2)


def summary_text(summary: SearchSummary) -> str:
    lines = [f"instances checked  {summary.instances_checked}"]
    record = summary.max_record
    if record is None:
        lines.append("max record         none (no instances)")
    else:
        at = (f"offset {record.offset}, values {list(record.function_values)}"
              if isinstance(record, GeneralRatioRecord)
              else f"{{{canonical_set_literal(record.set)}}}")
        lines.append(f"max ratio          {record.ratio} at {at}")
    by_span = summary.stats.get("max_by_span")
    if by_span and summary.parameters.get("mode") == "exhaustive":
        best = None
        for length in range(1, summary.parameters["length"] + 1):
            rec = by_span.get(length - 1)       # the one span that length adds
            best = rec if best is None or (rec and rec.ratio > best.ratio) else best
            if best is not None:
                lines.append(f"  L={length:<2d} max ratio {best.ratio} "
                             f"at {{{canonical_set_literal(best.set)}}}")
    lines += [f"{key:<18} {'none' if value is None else value}"
              for key, value in summary.stats.items() if key != "max_by_span"]
    violations = summary.violations
    lines.append(f"VIOLATIONS         {len(violations)}" if violations else "violations         none")
    lines += [f"  {v.kind}: {json.dumps(v.subject)} {json.dumps(v.details)}" for v in violations]
    lines.append(f"parameters         {json.dumps(summary.parameters)}")
    return "\n".join(lines)


# A scan's set is never empty, and every string in it is plain ASCII.
_SCAN = _layout([
    ("schema_version", "%d"), ("tool_version", '"%s"'), ("set", "%s"),
    ("order", "%d"), ("truncation", "%d"), ("value", '"%s"'), ("truncated_value", '"%s"')])


def scan_json(scan: TruncatedScan) -> str:
    """The scan as JSON in ``json.dumps(..., indent=2)`` bytes, filled into one template."""
    return _SCAN % (SCHEMA_VERSION, __version__, _ints(scan.set.elements),
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
