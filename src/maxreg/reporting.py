"""Set literals, structured reports, and stable serialization.

Every numeric field in machine output is an exact rational rendered as a
``p/q`` string (plain integer when q = 1); floats never appear.  The JSON
schema is versioned via ``schema_version`` so downstream plotting can pin
itself to a layout.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from ._version import __version__
from .lattice import IndexSet, LatticeFunction
from .maximal import maximal_at
from .regularity import PLUS, MINUS, Analysis, Chain, analyze

SCHEMA_VERSION = 3

__all__ = [
    "SCHEMA_VERSION",
    "SetLiteralError",
    "parse_set_literal",
    "canonical_set_literal",
    "Report",
    "build_report",
    "report_to_dict",
    "render_report_text",
    "render_report_json",
    "render_report_csv",
    "analysis_csv",
    "frac_str",
]


def frac_str(x: Fraction) -> str:
    """Exact decimal-free rendering: '4', '-2/3'."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Set literals
# ---------------------------------------------------------------------------

class SetLiteralError(ValueError):
    """Malformed set literal; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ITEM = re.compile(r"^(-?\d+)(?:-(-?\d+))?$")


def parse_set_literal(text: str) -> IndexSet:
    """Parse 'a,b,c-d,...' where items are integers or inclusive ranges.

    Negative endpoints carry an explicit sign ('-5--2' is the range -5..-2).
    Duplicates merge.  Empty input, malformed items, and inverted ranges
    raise :class:`SetLiteralError` with the offending position.
    """
    if not text.strip():
        raise SetLiteralError("empty set literal", 0)
    elements: set[int] = set()
    pos = 0
    for piece in text.split(","):
        item = piece.strip()
        offset = pos + piece.index(item) if item else pos
        if not item:
            raise SetLiteralError("empty item", offset)
        m = _ITEM.match(item)
        if m is None:
            raise SetLiteralError(f"malformed item {item!r}", offset)
        lo = int(m.group(1))
        if m.group(2) is None:
            elements.add(lo)
        else:
            hi = int(m.group(2))
            if lo > hi:
                raise SetLiteralError(f"inverted range {item!r}", offset)
            elements.update(range(lo, hi + 1))
        pos += len(piece) + 1
    return IndexSet.from_iterable(elements)


def canonical_set_literal(a: IndexSet) -> str:
    """Shortest run-merged literal; re-parses to the same set."""
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

@dataclass(frozen=True)
class Report:
    """Everything the per-set verification produces, in one structure.

    ``funeq_rhs_limit_bounded`` is the boundary bound with each of the two
    (exactly vanishing) limit terms replaced by its crude bound 1, kept for
    side-by-side display with the exact accounting.
    """

    input_literal: str
    input_set: IndexSet
    chi_second_norm: Fraction
    max_second_norm: Fraction
    ratio: Fraction
    s_minus: IndexSet
    left_boundary: IndexSet
    right_boundary: IndexSet
    chains: tuple[Chain, ...]
    funeq_rhs: Fraction
    funeq_rhs_limit_bounded: Fraction
    lemma1_ok: bool
    lemma1_violations: IndexSet
    chi_first_norm: Fraction
    max_first_variation: Fraction
    window: tuple[int, int]
    profile_values: tuple[Fraction, ...]

    @classmethod
    def from_analysis(cls, an: Analysis) -> "Report":
        """The `Fraction` view of an analysis, for the text and JSON renderers."""
        record = an.ratio_record()
        funeq = an.fraction(an.boundary_bound)
        return cls(
            input_literal=canonical_set_literal(an.set),
            input_set=an.set,
            chi_second_norm=record.chi_second_norm,
            max_second_norm=record.max_second_norm,
            ratio=record.ratio,
            s_minus=IndexSet(an.s_minus),
            left_boundary=IndexSet(an.left_boundary),
            right_boundary=IndexSet(an.right_boundary),
            chains=an.chains(),
            funeq_rhs=funeq,
            funeq_rhs_limit_bounded=funeq + 2,
            lemma1_ok=not an.lemma1_violations,
            lemma1_violations=IndexSet(an.lemma1_violations),
            chi_first_norm=Fraction(an.chi_first_norm),
            max_first_variation=an.fraction(an.variation),
            window=(an.lo, an.hi),
            profile_values=an.profile_values(),
        )


def build_report(a: IndexSet) -> Report:
    """The :class:`Report` of the analysis of ``a``."""
    return Report.from_analysis(analyze(a))


def report_to_dict(report: Report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input": report.input_literal,
        "set": list(report.input_set.elements),
        "chi_second_norm": frac_str(report.chi_second_norm),
        "max_second_norm": frac_str(report.max_second_norm),
        "ratio": frac_str(report.ratio),
        "s_minus": list(report.s_minus.elements),
        "left_boundary": list(report.left_boundary.elements),
        "right_boundary": list(report.right_boundary.elements),
        "chains": [{"kind": c.kind, "start": c.start, "end": c.end}
                   for c in report.chains],
        "funeq_rhs": frac_str(report.funeq_rhs),
        "funeq_rhs_limit_bounded": frac_str(report.funeq_rhs_limit_bounded),
        "lemma1": "ok" if report.lemma1_ok else "violated",
        "lemma1_violations": list(report.lemma1_violations.elements),
        "chi_first_norm": frac_str(report.chi_first_norm),
        "max_first_variation": frac_str(report.max_first_variation),
        "window": list(report.window),
        "profile_values": [frac_str(v) for v in report.profile_values],
    }


def render_report_text(report: Report, paper_accounting: bool = False) -> str:
    lines = [
        f"set               {report.input_literal}",
        f"window            [{report.window[0]}, {report.window[1]}]",
        f"||chi''||_1       {frac_str(report.chi_second_norm)}",
        f"||(M chi)''||_1   {frac_str(report.max_second_norm)}",
        f"ratio             {frac_str(report.ratio)}",
        f"S_minus           {{{canonical_set_literal(report.s_minus) if report.s_minus else ''}}}",
        f"left boundary     {{{canonical_set_literal(report.left_boundary) if report.left_boundary else ''}}}",
        f"right boundary    {{{canonical_set_literal(report.right_boundary) if report.right_boundary else ''}}}",
        "chains            " + " ".join(
            f"{c.kind}[{c.start},{c.end}]" for c in report.chains),
        f"boundary bound    {frac_str(report.funeq_rhs)}",
    ]
    if paper_accounting:
        lines.append(
            f"boundary bound with limit terms bounded by 1 each: "
            f"{frac_str(report.funeq_rhs_limit_bounded)}")
    lines += [
        f"lemma 1           {'ok' if report.lemma1_ok else 'VIOLATED at ' + canonical_set_literal(report.lemma1_violations)}",
        f"||chi'||_1        {frac_str(report.chi_first_norm)}",
        f"var M chi         {frac_str(report.max_first_variation)}",
        f"tool version      {__version__}",
    ]
    return "\n".join(lines)


def render_report_csv(a: IndexSet) -> str:
    """:func:`analysis_csv` of the analysis of ``a``."""
    return analysis_csv(analyze(a))


def analysis_csv(an: Analysis) -> str:
    """Per-point rows over the analysis window: n, value, second diff, class.

    The second difference at the two window edges needs M chi_A one point
    beyond them, evaluated exactly by :func:`maximal_at`, so the CSV is
    self-contained for plotting.
    """
    chi = LatticeFunction.from_set(an.set)
    values = an.profile_values()
    seconds = [values[1] + maximal_at(chi, an.lo - 1) - 2 * values[0]]
    seconds += [an.fraction(c) for c in an.second]
    seconds.append(values[-2] + maximal_at(chi, an.hi + 1) - 2 * values[-1])
    rows = ["n,value,second_difference,class"]
    for n, value, c2 in zip(range(an.lo, an.hi + 1), values, seconds):
        rows.append(f"{n},{frac_str(value)},{frac_str(c2)},"
                    f"{PLUS if c2 >= 0 else MINUS}")
    return "\n".join(rows) + "\n"


def render_report_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2)
