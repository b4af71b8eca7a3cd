"""Set literals, per-set reports, and stable serialization.

Every numeric field in machine output is an exact rational rendered as a
``p/q`` string (plain integer when q = 1); floats never appear.  The JSON
schema is versioned via ``schema_version`` so downstream plotting can pin
itself to a layout, which :func:`report_to_dict` defines.  The report of a
set is its :class:`~maxreg.regularity.Analysis` itself: the writers read its
integers and build no `Fraction` per point.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from ._version import __version__
from .lattice import IndexSet
from .regularity import PLUS, MINUS, Analysis, analyze

SCHEMA_VERSION = 3

__all__ = [
    "SCHEMA_VERSION", "SetLiteralError", "parse_set_literal",
    "canonical_set_literal", "build_report", "report_to_dict",
    "render_report_text", "render_report_json", "render_report_csv",
    "analysis_csv",
]


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
        m = _ITEM.match(item)
        if m is None:
            raise SetLiteralError(f"malformed item {item!r}" if item else "empty item", offset)
        lo = int(m[1])
        hi = int(m[2]) if m[2] else lo
        if lo > hi:
            raise SetLiteralError(f"inverted range {item!r}", offset)
        elements.update(range(lo, hi + 1))
        pos += len(piece) + 1
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


def report_to_dict(an: Analysis) -> dict:
    d = an.denominator
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input": canonical_set_literal(an.set),
        "set": list(an.set.elements),
        "chi_second_norm": str(an.chi_second_norm),
        "max_second_norm": _over(an.second_norm, d),
        "ratio": _over(an.second_norm, d * an.chi_second_norm),
        "s_minus": list(an.s_minus),
        "left_boundary": list(an.left_boundary),
        "right_boundary": list(an.right_boundary),
        "chains": [{"kind": kind, "start": start, "end": end}
                   for kind, start, end in an.chain_bounds()],
        "funeq_rhs": _over(an.boundary_bound, d),
        "funeq_rhs_limit_bounded": _over(an.boundary_bound + 2 * d, d),
        "lemma1": "violated" if an.lemma1_violations else "ok",
        "lemma1_violations": list(an.lemma1_violations),
        "chi_first_norm": str(an.chi_first_norm),
        "max_first_variation": _over(an.variation, d),
        "window": [an.lo, an.hi],
        "profile_values": _over_each(an.scaled, d),
    }


def render_report_text(an: Analysis, paper_accounting: bool = False) -> str:
    """The text report; ``paper_accounting`` adds the boundary bound with each
    of its two (exactly vanishing) limit terms replaced by its crude bound 1."""
    d = an.denominator
    lines = [
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
        f"boundary bound    {_over(an.boundary_bound, d)}",
    ]
    if paper_accounting:
        lines.append(
            f"boundary bound with limit terms bounded by 1 each: "
            f"{_over(an.boundary_bound + 2 * d, d)}")
    lines += [
        f"lemma 1           {'VIOLATED at ' + canonical_set_literal(an.lemma1_violations) if an.lemma1_violations else 'ok'}",
        f"||chi'||_1        {an.chi_first_norm}",
        f"var M chi         {_over(an.variation, d)}",
        f"tool version      {__version__}",
    ]
    return "\n".join(lines)


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


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the str and int values of a report
    and the dicts and lists of them (each list of one type)."""
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = indent + "  "
    if type(value) is dict:
        items = [f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
        opening, closing = "{}"
    else:
        items = map(_SCALARS.get(type(value[0])) or (lambda v: _json(v, inner)), value)
        opening, closing = "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def render_report_json(an: Analysis) -> str:
    """``json.dumps(report_to_dict(an), indent=2)``, byte for byte."""
    return _json(report_to_dict(an))
