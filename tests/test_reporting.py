"""The report writers against reports built the old way, in `Fraction`s.

The expected JSON is ``json.dumps(..., indent=2)`` of a dict built from a
maximal profile through the `Fraction` oracle of ``conftest``; the expected
CSV takes its edge rows from :func:`maximal_at`.  Both are compared byte
for byte with what ``maxreg report`` prints.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from hypothesis import example, given, settings

from maxreg import IndexSet, LatticeFunction, maximal_at
from maxreg._version import __version__
from maxreg.cli import EXIT_OK, main
from maxreg.maximal import MaximalProfile, maximal_profile, maximal_profile_fast
from maxreg.regularity import analyze
from maxreg.reporting import (SCHEMA_VERSION, analysis_csv, build_report, canonical_set_literal,
                              render_report_csv, render_report_json, render_report_text,
                              report_to_dict, scan_json, scan_to_dict)
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


def old_report_text(d: dict) -> str:
    def literal(xs):
        return "{" + canonical_set_literal(IndexSet(tuple(xs))) + "}"

    lemma = "ok" if d["lemma1"] == "ok" else "VIOLATED at " + literal(d["lemma1_violations"])[1:-1]
    return "\n".join([
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
        f"lemma 1           {lemma}",
        f"||chi'||_1        {d['chi_first_norm']}",
        f"var M chi         {d['max_first_variation']}",
        f"tool version      {__version__}",
    ])


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
    assert report_out("--", literal) == old_report_text(d) + "\n"


def test_writers_match_the_fraction_report_exhaustive():
    # every nonempty subset of [0, 8), as is and moved to negative indices,
    # with the oracle profile
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
    # hull widths from 1 to 300, and three wide sets with long chain lists;
    # the Fraction profile here is checked against the oracle in
    # test_maximal
    assert_writers_match(maximal_profile_fast(LatticeFunction.from_set(a)))


# SHA-256 of ``maxreg report`` JSON, text and CSV for seven sets, the last
# three being ``wide_set`` at densities 1/8, 1/2 and 7/8.  Any change to the
# analysis that alters a single byte of a report fails here.  When the schema
# or the tool version or a report layout changes on purpose, regenerate them:
# print ``report_hashes(literal)`` for each literal of ``pinned_literals()``,
# and say in CHANGES.md why every report changed.
_PINNED = (3, "0.1.0")      # (SCHEMA_VERSION, tool version) of the hashes below
_REPORT_SHA256 = [
    ("7f7b346a5cbf26c019f835495742acee50acbc5548790c9ca52f8d4b626b8bd2",
     "402c0c6bf37bc425d10c55d430f90c862ca25830f844847836097dc539bc1cb2",
     "bfb179436619bb5c8dc55e7ddaf3cb461ffd4289ad5db456e2fa111a5e71566a"),
    ("d8c344850ca9106ed7b9eef4151abef8686943e9547f853442960c2751db8ce0",
     "6c0f6a02f22ef3bf7972f8070cded1b8cbc266fc7f8dc0d1adc00eae954b8c9b",
     "a721bf8a5b4300e1dbfb2c83cc6e490a03e157f54657c41acbbc28e3aa33326d"),
    ("4073b797c812ebc49f25c6a857d6b7a711cc0bf16671e40e769c994afac1e504",
     "e6e51d533da2e5ebb12bacfe30207e94e1b0e87bf6119f89290b83ebb05550af",
     "5dfd18dc923f842e257cfbfa86bfff8430c01da1adfb3a14edf593787a811df2"),
    ("10e3db75ac22e7b99a93252f3fff82bb52e27d35aa80ec7fec42d784abcc8f9c",
     "191257ecb9de34cf9ac646a80d1f9f8e14732f00821c821decf204c52c8c55bc",
     "5ee987cd1cf71f3e27bb38c0b7902dbfe1f303de584369bf7dc81a2c2d3e712c"),
    ("d2c0ddd4d0876e38576ad93ca7f03161de10de0d99cd15e73b7ff66cdcee7e44",
     "0cc0db7705c41e5ae7d2e5e8b4dfc7402696a9affb5cf8bca0d57f6be6b49b34",
     "b43cb2e712f77730e0e158e351721c467c2783e87d162f23b1d7b77d224ae189"),
    ("6f22d9d344a6597afde57f666ece7924cb807b4271993cb5656372452dced3ff",
     "ce368b0ecbe4829bbb6458c3b01c074d0638ae0c9ebfedba460ca0d1be0c92a1",
     "db98d9190b7004fb3bb4b757a9ada2da477591f79f5bb66087e6b82c44219f97"),
    ("2b12b81352f56bd4d2488114c2ffdd503d0e5e137d9eb7ccd79a7872df739f1a",
     "eded5bbb64a82d5946abbe347c6e07b6a0f24416a02ad5207ba36c10cc6489aa",
     "8b693de80a0a94b69767b449b8d0a2a3ac69dd7fe773ab997d4609d4c4f4f9d9"),
]


def pinned_literals() -> list[str]:
    return ["0", "0,2", "0,2,5-9,1000-1003,1200", "-40--1,60,63,66,900-905",
            *[canonical_set_literal(wide_set(seed, density)) for seed, density in
              ((1, Fraction(1, 8)), (2, Fraction(1, 2)), (3, Fraction(7, 8)))]]


def report_hashes(literal: str) -> tuple[str, str, str]:
    """SHA-256 of the JSON, text and CSV reports of ``literal``."""
    return tuple(hashlib.sha256(report_out(*fmt, "--", literal).encode()).hexdigest()
                 for fmt in (["--format", "json"], [], ["--format", "csv"]))


def test_reports_are_byte_identical_to_the_pinned_hashes():
    assert (SCHEMA_VERSION, __version__) == _PINNED, "regenerate _REPORT_SHA256"
    for literal, expected in zip(pinned_literals(), _REPORT_SHA256, strict=True):
        assert report_hashes(literal) == expected, literal


def test_json_writer_on_empty_lists_and_a_single_chain():
    # no concave point at all: one convex chain, and every boundary list empty
    an = analyze(IndexSet.from_iterable([0, 3, 4]))._replace(minus=[], left=[], right=[])
    assert (an.s_minus, an.left_boundary, an.right_boundary, an.lemma1_violations) == \
        ((), (), (), ())
    d = report_to_dict(an)
    assert d["chains"] == [{"kind": "plus", "start": an.lo, "end": an.hi}]
    assert list(an.chain_bounds()) == [("plus", an.lo, an.hi)]
    assert render_report_json(an) == json.dumps(d, indent=2)
    assert d == json.loads(render_report_json(an))
    assert '"s_minus": [],' in render_report_json(an)
    assert f"chains            plus[{an.lo},{an.hi}]" in render_report_text(an)
    # a Lemma 1 violation is written as such: positions 2 and 3 of the
    # window [-1, 5] are the points 1 and 2, outside the set
    violated = an._replace(minus=[2, 3])
    assert violated.lemma1_violations == (1, 2)
    assert report_to_dict(violated)["lemma1"] == "violated"
    assert render_report_json(violated) == json.dumps(report_to_dict(violated), indent=2)
    assert "lemma 1           VIOLATED at 1-2" in render_report_text(violated)


def test_render_report_csv_is_the_csv_of_the_analysis():
    for elements in ((0,), (0, 2), (-7, -3, 0, 2), (0, 2, 5, 6, 7, 8, 9, 1000)):
        a = IndexSet.from_iterable(elements)
        assert render_report_csv(a) == analysis_csv(analyze(a))


def test_json_writer_is_json_dumps_with_indent_2():
    # scan_to_dict is the parse of scan_json, so the content is spelled out here
    for e, k, t in (((0,), 3, 3), ((-10, 10), 3, 13), ((0, 100, 101), 5, 2000)):
        scan = higher_derivative_scan(IndexSet.from_iterable(e), k, t)
        expected = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                    "set": list(e), "order": k, "truncation": t,
                    "value": str(scan.value), "truncated_value": str(scan.truncated_value)}
        assert scan_json(scan) == json.dumps(expected, indent=2)
        assert list(scan_to_dict(scan).items()) == list(expected.items())
        assert scan_json(scan) == json.dumps(scan_to_dict(scan), indent=2)
