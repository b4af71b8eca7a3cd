import random
from fractions import Fraction

import pytest

import maxreg.search as search
from maxreg import (
    GENERATOR_ID,
    IndexSet,
    Violation,
    exhaustive,
    higher_derivative_scan,
    random_functions,
    random_sets,
    theorem1_report,
)

from conftest import corrupt_singleton_kernel, random_index_set


def result_fields(summary):
    """Everything that must not depend on worker count."""
    return (summary.instances_checked, summary.max_record,
            summary.violations, summary.stats)


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

def test_exhaustive_length_one():
    s = exhaustive(1)
    assert s.instances_checked == 1
    assert s.max_record.ratio == Fraction(1, 2)
    assert s.max_record.set.elements == (0,)


def test_exhaustive_length_two():
    # {0} and {1} share the canonical representative {0} (ratio 1/2);
    # {0,1} gives 1/3.
    s = exhaustive(2)
    assert s.instances_checked == 2
    assert s.max_record.ratio == Fraction(1, 2)
    assert s.parameters["raw_set_count"] == 3


def test_exhaustive_rejects_bad_length():
    for length in (0, -1, 25):
        with pytest.raises(ValueError):
            exhaustive(length)


def test_sweeps_reject_nonpositive_workers():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            exhaustive(3, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            random_sets(5, 8, Fraction(1, 2), 1, workers=workers)


def test_exhaustive_worker_count_is_irrelevant():
    s1 = exhaustive(9, workers=1, fast=True)
    s2 = exhaustive(9, workers=2, fast=True)
    assert result_fields(s1) == result_fields(s2)


def test_exhaustive_fast_equals_naive():
    s1 = exhaustive(8, fast=False)
    s2 = exhaustive(8, fast=True)
    assert result_fields(s1) == result_fields(s2)


def test_exhaustive_clean_and_monotone_in_length():
    best = Fraction(0)
    for length in range(1, 7):
        s = exhaustive(length)
        assert not s.violations
        assert s.max_record.ratio >= best
        best = s.max_record.ratio


def test_exhaustive_max_by_span_consistent():
    s = exhaustive(7)
    by_span = s.stats["max_by_span"]
    assert set(by_span) == set(range(7))
    assert max(r.ratio for r in by_span.values()) == s.max_record.ratio
    # span-0 class is the singleton
    assert by_span[0].ratio == Fraction(1, 2)


# ---------------------------------------------------------------------------
# translation and reflection invariance
# ---------------------------------------------------------------------------

def test_ratio_translation_invariant():
    rng = random.Random(307)
    for _ in range(25):
        a = random_index_set(rng, 10)
        t = rng.randint(-20, 20)
        ra, rb = theorem1_report(a), theorem1_report(a.translate(t))
        assert (ra.chi_second_norm, ra.max_second_norm) == \
            (rb.chi_second_norm, rb.max_second_norm)


def test_ratio_reflection_invariant():
    rng = random.Random(311)
    for _ in range(25):
        a = random_index_set(rng, 10)
        ra, rb = theorem1_report(a), theorem1_report(a.reflect())
        assert ra.ratio == rb.ratio


# ---------------------------------------------------------------------------
# random sweeps
# ---------------------------------------------------------------------------

def test_random_sets_zero_trials():
    s = random_sets(0, 16, Fraction(1, 2), 5)
    assert s.instances_checked == 0
    assert s.max_record is None
    assert not s.violations


def test_random_sets_deterministic():
    s1 = random_sets(60, 12, Fraction(1, 3), 42)
    s2 = random_sets(60, 12, Fraction(1, 3), 42)
    assert s1 == s2
    assert s1.parameters["generator"] == GENERATOR_ID


def test_random_sets_worker_count_is_irrelevant():
    s1 = random_sets(80, 10, Fraction(1, 2), 9, workers=1)
    s2 = random_sets(80, 10, Fraction(1, 2), 9, workers=2)
    assert result_fields(s1) == result_fields(s2)


def test_random_sets_validation():
    with pytest.raises(ValueError):
        random_sets(10, 8, Fraction(0), 1)
    with pytest.raises(ValueError):
        random_sets(10, 8, Fraction(1), 1)
    with pytest.raises(ValueError):
        random_sets(-1, 8, Fraction(1, 2), 1)


def test_random_sets_clean_sweep():
    s = random_sets(300, 20, Fraction(1, 2), 2024)
    assert not s.violations
    assert s.max_record.ratio <= 3


def test_random_sets_large_clean_sweep():
    s = random_sets(10_000, 64, Fraction(1, 2), 42, workers=2, fast=True)
    assert s.instances_checked == 10_000     # empty draws are essentially impossible
    assert not s.violations
    assert s.max_record.ratio <= 3


def test_random_functions_consistent_with_set_path():
    record, violations = search._check_function_instance((1,), fast=False)
    assert not violations
    expected = theorem1_report(IndexSet.from_iterable([0]))
    assert record.ratio == expected.ratio == Fraction(1, 2)
    # ratio is invariant under scaling
    record2, _ = search._check_function_instance((2,), fast=False)
    assert record2.ratio == Fraction(1, 2)


def test_random_functions_sweep():
    s = random_functions(150, 12, 4, 7)
    assert not s.violations
    assert s.instances_checked > 0
    assert s.stats["ratio_quantiles"]["max"] == str(s.max_record.ratio)
    assert random_functions(150, 12, 4, 7) == s


def test_random_functions_thousand_trials_clean():
    s = random_functions(1000, 16, 4, 7, fast=True)
    assert not s.violations
    assert s.instances_checked == 1000


def test_random_functions_validation():
    with pytest.raises(ValueError):
        random_functions(10, 8, 0, 1)
    with pytest.raises(ValueError):
        random_functions(-2, 8, 2, 1)


# ---------------------------------------------------------------------------
# violation policy
# ---------------------------------------------------------------------------

def test_violation_halts_sweep(monkeypatch):
    real = search._check_set_instance
    tripwire = IndexSet.from_mask(0b101)   # {0, 2}

    def fake(a, fast, spot):
        record, violations = real(a, fast, spot)
        if a == tripwire:
            violations = [Violation("theorem1_ratio", {"set": list(a.elements)},
                                    {"ratio": "4"})]
        return record, violations

    monkeypatch.setattr(search, "_check_set_instance", fake)
    s = exhaustive(6)
    assert s.violations
    assert s.violations[0].kind == "theorem1_ratio"
    assert s.violations[0].subject == {"set": [0, 2]}
    # the sweep stopped at the offending instance
    assert s.instances_checked < 32


def test_fast_path_divergence_is_a_violation(monkeypatch):
    corrupt_singleton_kernel(monkeypatch)
    s = exhaustive(3, fast=True)       # mask 1 = {0} is spot-checked first
    assert s.instances_checked == 1
    assert [v.kind for v in s.violations] == ["fast_path_divergence"]
    assert s.violations[0].subject == {"set": [0]}
    assert s.violations[0].details == {"fast_profile": ["1/2", "1/2", "1/2"],
                                       "oracle_profile": ["1/2", "1", "1/2"]}
    assert not exhaustive(3, fast=False).violations     # the oracle path is untouched


# ---------------------------------------------------------------------------
# higher-order truncated scans
# ---------------------------------------------------------------------------

def test_scan_validation():
    a = IndexSet.from_iterable([0, 1])
    with pytest.raises(ValueError):
        higher_derivative_scan(IndexSet(()), 3, 100)
    with pytest.raises(ValueError):
        higher_derivative_scan(a, 2, 100)
    with pytest.raises(ValueError):
        higher_derivative_scan(a, 3, 3)           # margin too small
    with pytest.raises(ValueError):
        higher_derivative_scan(IndexSet.from_iterable([50, 51]), 3, 10)


def test_scan_bracket_is_self_consistent():
    # The T=1000 value must land inside the bracket reported at T=100.
    for elements in ((0,), (0, 1)):
        a = IndexSet.from_iterable(elements)
        small = higher_derivative_scan(a, 3, 100)
        big = higher_derivative_scan(a, 3, 1000)
        assert small.value <= big.value <= small.value + small.remainder_bound
        assert big.remainder_bound < small.remainder_bound


def test_scan_bracket_against_deep_truncation():
    a = IndexSet.from_iterable([0])
    small = higher_derivative_scan(a, 3, 100)
    deep = higher_derivative_scan(a, 3, 10_000)
    assert small.value <= deep.value <= small.value + small.remainder_bound


def test_scan_remainder_never_zero():
    rng = random.Random(313)
    for _ in range(10):
        a = random_index_set(rng, 6)
        for k in (3, 4, 5):
            scan = higher_derivative_scan(a, k, 64)
            assert scan.remainder_bound > 0
            assert scan.order == k and scan.truncation == 64


def test_scan_value_monotone_in_truncation():
    a = IndexSet.from_iterable([0, 3])
    values = [higher_derivative_scan(a, 4, t).value for t in (20, 40, 80, 160)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------

def test_progress_callback_sees_all_instances():
    seen = []
    exhaustive(6, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (32, 32)
