"""Shared oracles and fixtures.

The oracles here are deliberately independent of the library: dict-based
window enumeration for the maximal function, direct summation for norms.
They are the reference every exact claim is checked against.  The one
exception is the order-k scan bracket, which sums ``maximal_at`` (itself
checked against ``oracle_maximal_at``) point by point.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import maxreg.maximal as maximal
import maxreg.regularity as regularity
from maxreg import IndexSet, LatticeFunction, maximal_at


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def as_dict(f: LatticeFunction) -> dict[int, Fraction]:
    return {f.offset + i: v for i, v in enumerate(f.values) if v != 0}


def oracle_average(values: dict[int, Fraction], n: int, r: int, s: int) -> Fraction:
    total = sum((abs(values.get(n + j, Fraction(0))) for j in range(-r, s + 1)),
                Fraction(0))
    return total / (r + s + 1)


def oracle_maximal_at(values: dict[int, Fraction], n: int, pad: int = 2) -> Fraction:
    """Max window average by brute enumeration.

    Enumerates every window inside the hull of support union {n}, widened by
    ``pad`` on both sides; padding only adds diluted windows, which the
    pad-insensitivity test confirms empirically.
    """
    if not values:
        return Fraction(0)
    lo = min(min(values), n) - pad
    hi = max(max(values), n) + pad
    best = Fraction(0)
    for i in range(lo, n + 1):
        for j in range(n, hi + 1):
            best = max(best, oracle_average(values, n, n - i, j - n))
    return best


def oracle_second_norm_truncated(m, t: int) -> Fraction:
    """sum_{|n| <= t} |m(n+1) + m(n-1) - 2 m(n)| for a point evaluator m."""
    return sum((abs(m(n + 1) + m(n - 1) - 2 * m(n)) for n in range(-t, t + 1)),
               Fraction(0))


def oracle_scan_bracket(a: IndexSet, k: int, t: int) -> tuple[Fraction, Fraction]:
    """[low, high] holding sum over n in Z of |order-k forward difference of M chi_A|.

    ``low`` is the sum over |n| <= t, from ``maximal_at`` at every point of
    [-t, t + k].  Pre: k >= 3 and [-t, t] covers the hull with a k margin.
    Beyond the hull the second difference of the profile is one-signed and
    telescopes, and each order above two at worst doubles the bound, so the
    rest is at most 2^(k-2) times an edge difference on each side.
    """
    chi = LatticeFunction.from_set(a)

    def m(n: int) -> Fraction:
        return maximal_at(chi, n)

    diffs = [m(n) for n in range(-t, t + k + 1)]
    for _ in range(k):
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    low = sum(map(abs, diffs), Fraction(0))

    def bound_right(order: int, start: int) -> Fraction:
        if order == 2:
            return m(start) - m(start + 1)
        return bound_right(order - 1, start + 1) + bound_right(order - 1, start)

    def bound_left(order: int, start: int) -> Fraction:
        if order == 2:
            return m(start + 2) - m(start + 1)
        return bound_left(order - 1, start + 1) + bound_left(order - 1, start)

    return low, low + bound_right(k, t + 1) + bound_left(k, -t - 1)


# ---------------------------------------------------------------------------
# Deterministic corpora
# ---------------------------------------------------------------------------

def random_function(rng: random.Random, max_len: int, bound: int,
                    offset_range: int = 0) -> LatticeFunction:
    length = rng.randint(1, max_len)
    offset = rng.randint(-offset_range, offset_range) if offset_range else 0
    return LatticeFunction.make(
        offset, [rng.randint(-bound, bound) for _ in range(length)])


def integer_function_corpus(seed: int, count: int, max_len: int,
                            bound: int) -> list[LatticeFunction]:
    """``count`` nonzero integer-valued functions, deterministic in ``seed``."""
    rng = random.Random(seed)
    out: list[LatticeFunction] = []
    while len(out) < count:
        f = random_function(rng, max_len, bound)
        if not f.is_zero():
            out.append(f)
    return out


def random_index_set(rng: random.Random, length: int) -> IndexSet:
    mask = rng.randint(1, (1 << length) - 1)
    return IndexSet.from_mask(mask)


@st.composite
def index_sets(draw, max_width: int = 64):
    """Sets of hull width <= max_width, anywhere in [-100, 100 + max_width)."""
    base = draw(st.integers(-100, 100))
    width = draw(st.integers(1, max_width))
    inner = draw(st.integers(0, (1 << max(width - 2, 0)) - 1))
    return IndexSet.from_mask((1 | inner << 1 | 1 << (width - 1)), base)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def corrupt_singleton_kernel(monkeypatch):
    """Make the fast profile kernel return 1/2 instead of 1 at the point of {0}."""
    real = regularity.window_maxima

    def corrupted(u):
        if u == [0, 1, 0]:
            return [1, 1, 1], [2, 2, 2]
        return real(u)

    monkeypatch.setattr(regularity, "window_maxima", corrupted)


def lift_first_value(monkeypatch, skip: int = 0):
    """Make every profile kernel call after the first ``skip`` add 1 to its
    first value, which lifts the left edge above its neighbour."""
    real = maximal.window_maxima
    calls = 0

    def lifted(u):
        nonlocal calls
        nums, dens = real(u)
        calls += 1
        if calls > skip:
            nums = [nums[0] + dens[0]] + nums[1:]
        return nums, dens

    monkeypatch.setattr(regularity, "window_maxima", lifted)
    monkeypatch.setattr(maximal, "window_maxima", lifted)


# ---------------------------------------------------------------------------
# Acceptance criterion reporting
# ---------------------------------------------------------------------------

_CRITERION_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _CRITERION_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _CRITERION_RESULTS[name] = "ERROR"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_CRITERION_RESULTS):
        terminalreporter.write_line(f"{_CRITERION_RESULTS[name]:4}  {name}")


@pytest.fixture(scope="session")
def corpus_32():
    """Criterion 3 corpus: 1000 nonzero integer functions, support <= 32."""
    return integer_function_corpus(seed=20240501, count=1000, max_len=32, bound=8)
