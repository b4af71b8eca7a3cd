"""Acceptance criteria, one test per criterion, all with exact comparisons.

The shared L=15 exhaustive sweep (32767 sets, reduced to the 16384
translation classes containing 0) feeds criteria 1, 2, 5, 9 and 10.
Derived criteria recompute every pinned value with an independent truncated
brute-force oracle before trusting the frozen constant.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from maxreg import (
    IndexSet,
    LatticeFunction,
    analyze,
    exhaustive,
    first_derivative_norms,
    lemma1_violations,
    maximal_at,
    maximal_profile,
    maximal_profile_fast,
    theorem1_report,
)

from conftest import (
    assert_function_check_matches_oracle,
    function_window,
    oracle_chain_sum,
    oracle_chains,
    profile_window,
    random_index_set,
)

SWEEP_LENGTH = 15
WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    s = exhaustive(SWEEP_LENGTH, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    print(f"\n[sweep] L={SWEEP_LENGTH}: {s.instances_checked} translation classes "
          f"({s.parameters['raw_set_count']} raw sets) in {elapsed:.1f}s, "
          f"{WORKERS} workers")
    assert elapsed < 300, "exhaustive sweep exceeded the five-minute budget"
    return s


def maximal_values(f: LatticeFunction, lo: int, hi: int) -> list[Fraction]:
    return [maximal_at(f, n) for n in range(lo, hi + 1)]


def truncated_second_norm_with_remainder(f: LatticeFunction, t: int) -> Fraction:
    """Independent oracle: partial centered sum over |n| <= t plus the two
    telescoped tail remainders (exact once t clears the hull)."""
    m = maximal_values(f, -t - 1, t + 1)

    def at(n: int) -> Fraction:
        return m[n + t + 1]

    partial = sum((abs(at(n + 1) + at(n - 1) - 2 * at(n)) for n in range(-t, t + 1)),
                  Fraction(0))
    remainder = (at(t) - at(t + 1)) + (at(-t) - at(-t - 1))
    return partial + remainder


def truncated_variation_with_remainder(f: LatticeFunction, t: int) -> Fraction:
    m = maximal_values(f, -t, t)
    partial = sum((abs(m[i + 1] - m[i]) for i in range(len(m) - 1)), Fraction(0))
    return partial + m[0] + m[-1]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_theorem1_exhaustive(sweep):
    assert sweep.instances_checked == 1 << (SWEEP_LENGTH - 1)
    assert sweep.parameters["raw_set_count"] == (1 << SWEEP_LENGTH) - 1
    assert not [v for v in sweep.violations if v.kind == "theorem1_ratio"]
    assert not sweep.violations
    assert sweep.max_record.ratio <= 3
    print(f"criterion 1: every ratio <= 3; max {sweep.max_record.ratio} "
          f"at {set(sweep.max_record.set.elements)}")


def test_criterion_02_lemma1_exhaustive(sweep):
    assert not [v for v in sweep.violations if v.kind == "lemma1_concavity"]
    # direct spot confirmation through the public operation
    for mask in (1, 0b101, 0b1101, 0b111111111111111):
        assert not lemma1_violations(IndexSet.from_mask(mask))
    print("criterion 2: no concavity outside any set across the sweep")


def test_criterion_03_funeq_suite(corpus_32):
    assert len(corpus_32) == 1000
    for f in corpus_32:
        # equal to the oracle, whose boundary sum is each norm, and no
        # violation: no first_derivative_bound, so Var(M f) <= Var(f)
        assert_function_check_matches_oracle(f)
    print("criterion 3: the integer function check equals the oracle, the "
          "boundary bound equals the second norm, and Var(M f) <= Var(f), on "
          "1000 random functions and their maximal functions")


def test_criterion_04_chain_identity(corpus_32):
    checked = 0
    for f in corpus_32:
        for g in (function_window(f), profile_window(maximal_profile_fast(f))):
            for c in oracle_chains(g):
                start = max(c.start, g.lo + 1)
                end = min(c.end, g.hi - 1)
                if start > end:
                    continue
                lhs, rhs = oracle_chain_sum(g, (c.kind, start, end))
                assert lhs == rhs
                checked += 1
    print(f"criterion 4: telescoping identity exact on {checked} chains")


def test_criterion_05_first_derivative(sweep):
    assert not [v for v in sweep.violations if v.kind == "first_derivative_bound"]
    for mask in (1, 0b101, 0b100000000000001):
        chi_norm, max_norm = first_derivative_norms(IndexSet.from_mask(mask))
        assert max_norm <= chi_norm
    print("criterion 5: maximal-function variation never exceeds the "
          "indicator variation across the sweep")


def test_criterion_06_pinned_values():
    t = 10_000
    singleton = IndexSet.from_iterable([0])
    pair = IndexSet.from_iterable([0, 1])
    gap = IndexSet.from_iterable([0, 2])

    # independent truncated recomputation of each pinned value
    assert truncated_second_norm_with_remainder(
        LatticeFunction.from_set(singleton), t) == 2
    assert truncated_second_norm_with_remainder(
        LatticeFunction.from_set(pair), t) == Fraction(4, 3)
    assert truncated_variation_with_remainder(
        LatticeFunction.from_set(gap), t) == Fraction(8, 3)

    r = theorem1_report(singleton)
    assert (r.chi_second_norm, r.max_second_norm, r.ratio) == \
        (4, 2, Fraction(1, 2))
    r = theorem1_report(pair)
    assert (r.chi_second_norm, r.max_second_norm, r.ratio) == \
        (4, Fraction(4, 3), Fraction(1, 3))
    assert first_derivative_norms(gap) == (4, Fraction(8, 3))
    print(f"criterion 6: pinned values reconfirmed by truncation at T={t}")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(20240507)
    checked = 0
    while checked < 1000:
        length = rng.randint(1, 64)
        values = [rng.randint(-8, 8) for _ in range(length)]
        f = LatticeFunction.make(rng.randint(-16, 16), values)
        if f.is_zero():
            continue
        assert maximal_profile_fast(f) == maximal_profile(f)
        checked += 1
    print("criterion 7: fast path bit-identical to the oracle on "
          "1000 random functions (support <= 64)")


def test_criterion_08_tail_formula():
    rng = random.Random(20240508)
    for _ in range(100):
        a = random_index_set(rng, 12)
        f = LatticeFunction.from_set(a)
        an = analyze(a)
        closed = an.fraction(an.second_norm)
        for t in (100, 1000):
            assert truncated_second_norm_with_remainder(f, t) == closed
    print("criterion 8: closed-form tails equal truncated sums plus "
          "telescoped remainders at T=100 and T=1000 on 100 random sets")


def test_criterion_09_chi_norm_lower_bound(sweep):
    observed = sweep.stats["min_chi_second_norm"]
    assert observed >= 2
    print(f"criterion 9: indicator second norm >= 2 everywhere; observed "
          f"minimum {observed}")


def test_criterion_10_sharpness_probe(sweep):
    by_span = sweep.stats["max_by_span"]
    best = None
    table = []
    for length in range(1, SWEEP_LENGTH + 1):
        rec = by_span.get(length - 1)
        if rec is not None:
            best = rec if best is None or rec.ratio > best.ratio else best
        table.append((length, best))
    ratios = [rec.ratio for _, rec in table]
    assert ratios == sorted(ratios), "max ratio must be nondecreasing in L"
    for length, rec in table:
        print(f"L={length:<2d} max ratio {rec.ratio} at {set(rec.set.elements)}")
    for length in range(1, 7):
        direct = exhaustive(length)
        assert direct.max_record.ratio == table[length - 1][1].ratio
    print(f"criterion 10: sharpness probe max {ratios[-1]} (constant 3 "
          f"not approached; report only)")
