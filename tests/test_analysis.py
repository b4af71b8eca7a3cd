"""The integer analysis against the `Fraction` oracle.

``analyze`` computes every per-set quantity over one common denominator.
Each one is checked here against the `Fraction` decomposition of
``conftest`` fed by the oracle profile, which shares no code with it.
"""

from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

import maxreg.regularity as regularity
from maxreg import (
    IndexSet,
    LatticeFunction,
    RatioRecord,
    Violation,
    analyze,
    forward_difference,
    lp_norm,
    maximal_profile,
)

from conftest import (
    block_count,
    index_sets,
    oracle_boundaries,
    oracle_chains,
    oracle_concave,
    oracle_funeq_rhs,
    oracle_second_norm,
    profile_window,
    vary_to,
)


def assert_matches_fraction_path(a: IndexSet) -> None:
    an = analyze(a)
    chi = LatticeFunction.from_set(a)
    profile = maximal_profile(chi)
    g = profile_window(profile)
    norm = oracle_second_norm(g)

    assert an.profile_values() == profile.values
    assert (an.lo, an.hi) == profile.window == (g.lo, g.hi)
    assert [an.fraction(v) for v in an.scaled] == list(profile.values)
    assert [an.fraction(c) for c in an.second] == [g.c2(n) for n in range(g.lo + 1, g.hi)]
    assert [an.fraction(x) for x in an.first] == [g.at(n + 1) - g.at(n) for n in range(g.lo, g.hi)]
    assert an.concave == [n in oracle_concave(g) for n in range(g.lo, g.hi + 1)]
    assert an.fraction(an.second_norm) == norm == oracle_funeq_rhs(g)
    assert an.s_minus == oracle_concave(g)
    assert (an.left_boundary, an.right_boundary) == oracle_boundaries(g)
    assert list(an.chain_bounds()) == oracle_chains(g)
    assert an.lemma1_violations == tuple(n for n in oracle_concave(g) if n not in a)

    chi_norm = lp_norm(forward_difference(chi, 2), 1)
    assert an.chi_second_norm == chi_norm
    assert an.chi_first_norm == lp_norm(forward_difference(chi, 1), 1)
    a_lo, b_hi = profile.hull
    variation = sum((abs(profile.value_at(n + 1) - profile.value_at(n))
                     for n in range(a_lo, b_hi)), Fraction(0))
    assert an.fraction(an.variation) == \
        profile.value_at(a_lo) + variation + profile.value_at(b_hi)

    assert an.ratio_record() == RatioRecord(a, chi_norm, norm, norm / chi_norm)
    assert an.violations() == []


def test_analysis_matches_fraction_path_exhaustive():
    # every nonempty subset of [0, 10), so every set of hull width <= 10
    for mask in range(1, 1 << 10):
        assert_matches_fraction_path(IndexSet.from_mask(mask))


@settings(max_examples=60, deadline=None)
@given(index_sets())
def test_analysis_matches_fraction_path_property(a):
    assert_matches_fraction_path(a)
    an = analyze(a)
    assert an.chi_second_norm == 4 * block_count(a)
    assert an.chi_first_norm == 2 * block_count(a)
    mirror = analyze(a.reflect())
    assert mirror.fraction(mirror.second_norm) == an.fraction(an.second_norm)
    assert mirror.fraction(mirror.variation) == an.fraction(an.variation)
    assert mirror.chi_second_norm == an.chi_second_norm


def test_analyses_leave_no_memory_behind():
    # Every tuple in an Analysis is built at its final size.  A tuple built
    # from an iterator of unknown length is allocated at one size and freed
    # at another, so a sweep would fill CPython's per-size tuple free lists:
    # 1.2 MB over these 4,096 sets, and 2 MiB more peak memory in a sweep.
    sets = [IndexSet.from_mask(mask) for mask in range(1, 1 << 13, 2)]
    gc.disable()
    tracemalloc.start()
    try:
        for a in sets:
            analyze(a).violations()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 100_000


def test_analysis_rejects_empty_set():
    with pytest.raises(ValueError):
        analyze(IndexSet(()))


def _rebuilt(an, norm=None, first=None, concave=None):
    """The Analysis built from ``an``'s integer pass with the given parts replaced,
    as a sweep or ``analyze`` builds it from a pass (``regularity._analysis``)."""
    p = (an.second_norm if norm is None else norm, an.first if first is None else first,
         an.second, an.concave if concave is None else concave)
    return regularity._analysis(an.set, an.chi_first_norm // 2, an.denominator, list(an.scaled), p)


def _varied(an, total):
    """``an``'s first differences as ``vary_to(total)`` edits them: D * Var(M chi) = total * D."""
    return vary_to(total)(an[5:9], an.scaled, an.denominator)[1]


def test_violations_name_each_broken_contract():
    an = analyze(IndexSet.from_iterable([0, 2]))
    d = an.denominator
    # position 2 of the window [-1, 3] is the point 1, outside the set
    broken = _rebuilt(an, norm=25 * d, first=_varied(an, 5),
                      concave=[False, True, True, True, False])
    assert (broken.minus, broken.variation) == ([1, 2, 3], 5 * d)
    kinds = [v.kind for v in broken.violations()]
    assert kinds == ["theorem1_ratio", "lemma1_concavity", "first_derivative_bound"]
    assert all(v.subject == {"set": [0, 2]} for v in broken.violations())
    assert broken.violations()[0].details["ratio"] == "25/8"


def test_each_contract_broken_alone_gives_exactly_its_own_violation():
    # One contract at a time, through the integer pass an Analysis is built
    # from and its battery reads, so that a battery which skipped one test on
    # its accept path would fail here.  The details are those the battery has
    # always written.
    an = analyze(IndexSet.from_iterable([0, 2]))
    d = an.denominator
    assert (an.minus, an.second_norm, an.variation) == ([1, 3], 40, 32)
    assert _rebuilt(an) == an
    assert an.violations() == []
    subject = {"set": [0, 2]}
    cases = [
        (_rebuilt(an, norm=25 * d), "theorem1_ratio", subject,
         {"chi_second_norm": "8", "max_second_norm": "25", "ratio": "25/8"}),
        (_rebuilt(an, concave=[False, True, True, True, False]), "lemma1_concavity", subject,
         {"concave_points_outside_set": [1],
          "profile_values": ["1/2", "1", "2/3", "1", "1/2"]}),
        (_rebuilt(an, first=_varied(an, 5)), "first_derivative_bound", subject,
         {"chi_first_norm": "4", "max_first_variation": "5"}),
    ]
    for broken, kind, subject, details in cases:
        assert broken.violations() == [Violation(kind, subject, details)], kind
        assert broken.violations(spot_check=True) == [Violation(kind, subject, details)], kind


def test_point_views_are_read_only_and_built_from_the_positions():
    an = analyze(IndexSet.from_iterable([0, 2, 3, 7]))
    lo = an.lo
    assert an.s_minus == tuple([lo + i for i in an.minus])
    assert an.left_boundary == tuple([lo + i for i in an.left])
    assert an.right_boundary == tuple([lo + i for i in an.right])
    assert an.lemma1_violations == ()
    for view in ("s_minus", "left_boundary", "right_boundary", "lemma1_violations"):
        assert view not in an._fields
        with pytest.raises(ValueError, match="unexpected field"):
            an._replace(**{view: ()})
        with pytest.raises(AttributeError):
            setattr(an, view, ())
