"""The report writers against reports built the old way, in `Fraction`s.

The expected JSON is ``json.dumps(..., indent=2)`` of a dict built from a
maximal profile through the `Fraction` oracle of ``conftest``; the expected
CSV takes its edge rows from :func:`maximal_at`.  Both are compared byte
for byte with what ``maxreg report`` prints.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from hypothesis import example, given, settings

from maxreg import IndexSet, LatticeFunction, maximal_at
from maxreg._version import __version__
from maxreg.cli import EXIT_OK, main, scan_to_dict
from maxreg.maximal import MaximalProfile, maximal_profile, maximal_profile_fast
from maxreg.regularity import analyze
from maxreg.reporting import (SCHEMA_VERSION, _json, build_report, canonical_set_literal,
                              render_report_json, render_report_text, report_to_dict)
from maxreg.search import higher_derivative_scan

from conftest import (
    function_window,
    index_sets,
    oracle_boundaries,
    oracle_chains,
    oracle_concave,
    oracle_funeq_rhs,
    oracle_second_norm,
    profile_window,
)


def old_report_dict(profile: MaximalProfile) -> dict:
    a, chi, values = profile.source.support(), profile.source, profile.values
    lo, hi = profile.window
    g = profile_window(profile)
    norm, bound = oracle_second_norm(g), oracle_funeq_rhs(g)
    left, right = oracle_boundaries(g)
    chi_norm = oracle_second_norm(function_window(chi))
    chi_first = sum(abs(chi.value_at(n + 1) - chi.value_at(n)) for n in range(lo, hi))
    variation = values[1] + sum(abs(y - x) for x, y in zip(values[1:-2], values[2:-1])) \
        + values[-2]
    outside = [n for n in oracle_concave(g) if n not in a]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input": canonical_set_literal(a),
        "set": list(a.elements),
        "chi_second_norm": str(chi_norm),
        "max_second_norm": str(norm),
        "ratio": str(norm / chi_norm),
        "s_minus": list(oracle_concave(g)),
        "left_boundary": list(left),
        "right_boundary": list(right),
        "chains": [{"kind": c.kind, "start": c.start, "end": c.end} for c in oracle_chains(g)],
        "funeq_rhs": str(bound),
        "funeq_rhs_limit_bounded": str(bound + 2),
        "lemma1": "violated" if outside else "ok",
        "lemma1_violations": outside,
        "chi_first_norm": str(chi_first),
        "max_first_variation": str(variation),
        "window": [lo, hi],
        "profile_values": [str(v) for v in values],
    }


def old_report_text(d: dict, paper_accounting: bool) -> str:
    def literal(xs):
        return "{" + canonical_set_literal(IndexSet(tuple(xs))) + "}"

    lines = [
        f"set               {d['input']}",
        f"window            [{d['window'][0]}, {d['window'][1]}]",
        f"||chi''||_1       {d['chi_second_norm']}",
        f"||(M chi)''||_1   {d['max_second_norm']}",
        f"ratio             {d['ratio']}",
        f"S_minus           {literal(d['s_minus'])}",
        f"left boundary     {literal(d['left_boundary'])}",
        f"right boundary    {literal(d['right_boundary'])}",
        "chains            " + " ".join(f"{c['kind']}[{c['start']},{c['end']}]"
                                        for c in d["chains"]),
        f"boundary bound    {d['funeq_rhs']}",
    ]
    if paper_accounting:
        lines.append("boundary bound with limit terms bounded by 1 each: "
                     f"{d['funeq_rhs_limit_bounded']}")
    lemma = "ok" if d["lemma1"] == "ok" else "VIOLATED at " + literal(d["lemma1_violations"])[1:-1]
    lines += [
        f"lemma 1           {lemma}",
        f"||chi'||_1        {d['chi_first_norm']}",
        f"var M chi         {d['max_first_variation']}",
        f"tool version      {__version__}",
    ]
    return "\n".join(lines)


def old_report_csv(profile: MaximalProfile) -> str:
    chi, values = profile.source, profile.values
    lo, hi = profile.window
    ext = [maximal_at(chi, lo - 1), *values, maximal_at(chi, hi + 1)]
    rows = ["n,value,second_difference,class"]
    for i, n in enumerate(range(lo, hi + 1)):
        c2 = ext[i] + ext[i + 2] - 2 * ext[i + 1]
        rows.append(f"{n},{values[i]},{c2},{'plus' if c2 >= 0 else 'minus'}")
    return "\n".join(rows) + "\n"


def report_out(*argv: str) -> str:
    """stdout of ``maxreg report <argv>``, which must exit clean."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", *argv]) == EXIT_OK
    return out.getvalue()


def assert_writers_match(profile: MaximalProfile):
    literal = canonical_set_literal(profile.source.support())
    d = old_report_dict(profile)
    assert report_out("--format", "json", "--", literal) == json.dumps(d, indent=2) + "\n"
    assert render_report_json(build_report(profile.source.support())) == json.dumps(d, indent=2)
    assert report_out("--format", "csv", "--", literal) == old_report_csv(profile)
    assert report_out("--", literal) == old_report_text(d, False) + "\n"
    assert report_out("--paper-accounting", "--", literal) == old_report_text(d, True) + "\n"


def test_writers_match_the_fraction_report_exhaustive():
    # every nonempty subset of [0, 8), as is and moved to negative indices,
    # with the profile of the naive oracle
    for mask in range(1, 1 << 8):
        for base in (0, -57):
            chi = LatticeFunction.from_set(IndexSet.from_mask(mask, base))
            assert_writers_match(maximal_profile(chi))


def wide_set(seed: int, density: Fraction) -> IndexSet:
    """A seeded set of hull width 512, as ``maxreg report`` is benchmarked on."""
    rng = random.Random(seed)
    inner = [x for x in range(1, 511) if rng.randrange(density.denominator) < density.numerator]
    return IndexSet.from_iterable([0, *inner, 511])


@settings(max_examples=40, deadline=None)
@given(index_sets(max_width=300))
@example(wide_set(1, Fraction(1, 8)))   # 111 chains
@example(wide_set(2, Fraction(1, 2)))   # 311 chains
@example(wide_set(3, Fraction(7, 8)))   # 193 chains
def test_writers_match_the_fraction_report_property(a):
    # hull widths on both sides of the profile kernel switch, and three wide
    # sets with long chain lists; the Fraction profile here is checked
    # against the naive oracle in test_maximal
    assert_writers_match(maximal_profile_fast(LatticeFunction.from_set(a)))


def test_json_writer_on_empty_lists_and_a_single_chain():
    # no concave point at all: one convex chain, and every boundary list empty
    an = analyze(IndexSet.from_iterable([0, 3, 4]))._replace(
        s_minus=(), left_boundary=(), right_boundary=(), lemma1_violations=())
    d = report_to_dict(an)
    assert d["chains"] == [{"kind": "plus", "start": an.lo, "end": an.hi}]
    assert [(c.kind, c.start, c.end) for c in an.chains()] == [("plus", an.lo, an.hi)]
    assert render_report_json(an) == json.dumps(d, indent=2)
    assert d == json.loads(render_report_json(an))
    assert '"s_minus": [],' in render_report_json(an)
    assert f"chains            plus[{an.lo},{an.hi}]" in render_report_text(an)
    # a Lemma 1 violation is written as such
    violated = an._replace(lemma1_violations=(1, 2))
    assert report_to_dict(violated)["lemma1"] == "violated"
    assert render_report_json(violated) == json.dumps(report_to_dict(violated), indent=2)
    assert "lemma 1           VIOLATED at 1-2" in render_report_text(violated)


def test_json_writer_is_json_dumps_with_indent_2():
    scans = [scan_to_dict(higher_derivative_scan(IndexSet.from_iterable(e), k, t))
             for e, k, t in (((0,), 3, 3), ((-10, 10), 3, 13), ((0, 100, 101), 5, 2000))]
    for value in ({}, [], {"a": {}, "b": [], "c": [{"x": [], "y": -3}, {"z": {"w": "\u00e9\"\n"}}]},
                  {"s": ["1/2", "-3"], "n": [0, -1, 10 ** 40], "m": [[1, 2], []]}, *scans):
        assert _json(value) == json.dumps(value, indent=2)
