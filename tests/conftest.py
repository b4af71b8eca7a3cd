"""Shared oracles and fixtures.

The oracles here are deliberately independent of the library: dict-based
window enumeration for the maximal function, a loop over window ends for
block profiles, direct summation for norms, and the convexity decomposition
in `Fraction`s point by point.  They are the reference every exact claim is
checked against.  The exceptions are the order-k scan bracket and scan
value, which sum ``maximal_at`` (itself checked against ``oracle_maximal_at``)
point by point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import maxreg.lanes as lanes
import maxreg.regularity as regularity
import maxreg.search as search
from maxreg import (
    MINUS,
    PLUS,
    GeneralRatioRecord,
    IndexSet,
    LatticeFunction,
    MaximalProfile,
    analyze,
    maximal_at,
    maximal_profile,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def as_dict(f: LatticeFunction) -> dict[int, Fraction]:
    return {f.offset + i: v for i, v in enumerate(f.values) if v != 0}


def block_count(a: IndexSet) -> int:
    """Number of maximal runs of consecutive integers in ``a``."""
    blocks = 0
    prev = None
    for x in a:
        if prev is None or x != prev + 1:
            blocks += 1
        prev = x
    return blocks


def mirror_mask(mask: int) -> int:
    """Bitmask of the reflected set of an odd mask: bit i goes to bit span - i,
    by reversing the binary digits."""
    return int(f"{mask:b}"[::-1], 2)


def central_second_difference(f: LatticeFunction, n: int) -> Fraction:
    """f(n+1) + f(n-1) - 2 f(n), the centered form of the second difference."""
    return f.value_at(n + 1) + f.value_at(n - 1) - 2 * f.value_at(n)


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


def reference_window_maxima(u: list[int]) -> tuple[list[int], list[int]]:
    """``window_maxima`` in O(m^2) integer steps for a block of length m.

    For each window end j, a running best over starts i <= t is folded into
    position t while t runs from 0 to j.  Ties keep the first pair found.
    """
    m = len(u)
    prefix = list(accumulate(u, initial=0))
    best_num = [0] * m
    best_den = [1] * m
    for j in range(m):
        pj = prefix[j + 1]
        bn, bd = 0, 1
        den = j + 1                         # length of the window [t, j]
        for t in range(j + 1):
            num = pj - prefix[t]
            if num * bd > bn * den:
                bn, bd = num, den
            den -= 1
            if bn * best_den[t] > best_num[t] * bd:
                best_num[t] = bn
                best_den[t] = bd
    return best_num, best_den


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


def oracle_scan_value(a: IndexSet, k: int) -> Fraction:
    """sum over n in Z of |order-k forward difference of M chi_A|, from
    ``maximal_at`` alone.

    Walk right from b + 1 to the first N_R where the whole-set window [a, n]
    attains M chi_A(n) = |A| / (n + 1 - a), and left from a - 1 to the first
    N_L where [n, b] does.  Against a window [s, n] holding |A| - C points,
    |A| (n + 1 - s) - (|A| - C)(n + 1 - a) rises in n, so the whole set wins
    for good past N_R (and, reflected, before N_L): one hyperbola, whose
    order-k differences have one sign and telescope.  The value is the direct
    sum over the starts [N_L - k + 1, N_R) plus |order k - 1 difference| at
    N_R and at N_L - k + 1.
    """
    chi = LatticeFunction.from_set(a)
    lo, hi, count = a.min(), a.max(), len(a)
    right = hi + 1
    while maximal_at(chi, right) != Fraction(count, right + 1 - lo):
        right += 1
    left = lo - 1
    while maximal_at(chi, left) != Fraction(count, hi + 1 - left):
        left -= 1
    leads = [maximal_at(chi, n) for n in range(left - k + 1, right + k)]
    for _ in range(k - 1):
        leads = [y - x for x, y in zip(leads, leads[1:])]
    diffs = [y - x for x, y in zip(leads, leads[1:])]
    return sum(map(abs, diffs), abs(leads[0]) + abs(leads[-1]))


# ---------------------------------------------------------------------------
# Convexity decomposition in Fractions
# ---------------------------------------------------------------------------

class Window(NamedTuple):
    """Exact values of g on [lo, hi], where every point at or beyond the edges
    is convex and g(n+1) - g(n) -> 0 at +-inf.  Both tails of the second
    difference then telescope to an edge difference (``oracle_second_norm``)."""

    lo: int
    values: tuple[Fraction, ...]

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def at(self, n: int) -> Fraction:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"n={n} outside the window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def c2(self, n: int) -> Fraction:
        """g(n+1) + g(n-1) - 2 g(n), on the interior only."""
        if not self.lo < n < self.hi:
            raise ValueError(f"second difference at n={n} needs values outside the window")
        return self.at(n + 1) + self.at(n - 1) - 2 * self.at(n)


def function_window(f: LatticeFunction) -> Window:
    """f on [min - 2, max + 2] of its support, or on [-1, 1] if f is zero:
    beyond it the second difference vanishes."""
    lo, hi = (-1, 1) if f.is_zero() else (f.support_min() - 2, f.support_max() + 2)
    return Window(lo, tuple(f.value_at(n) for n in range(lo, hi + 1)))


def profile_window(p: MaximalProfile) -> Window:
    """A maximal profile on [a - 1, b + 1]: its hyperbola tails are convex."""
    assert p.tail_guarantee
    return Window(p.window[0], p.values)


def oracle_classify(g: Window, n: int) -> str:
    """``plus`` iff g(n+1) + g(n-1) >= 2 g(n); ties and the edges are convex."""
    return PLUS if not g.lo < n < g.hi or g.c2(n) >= 0 else MINUS


def oracle_concave(g: Window) -> tuple[int, ...]:
    return tuple(n for n in range(g.lo + 1, g.hi) if oracle_classify(g, n) == MINUS)


def oracle_boundaries(g: Window) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(left, right): concave points with a convex left (right) neighbour."""
    minus = oracle_concave(g)
    return (tuple(n for n in minus if oracle_classify(g, n - 1) == PLUS),
            tuple(n for n in minus if oracle_classify(g, n + 1) == PLUS))


class Chain(NamedTuple):
    """A maximal same-class run, equal to the (kind, start, end) tuple that
    ``Analysis.chain_bounds`` yields for it."""
    kind: str
    start: int
    end: int


def oracle_chains(g: Window) -> list[Chain]:
    """Maximal runs of same-class points, covering [lo, hi] in order."""
    out: list[Chain] = []
    start, kind = g.lo, oracle_classify(g, g.lo)
    for n in range(g.lo + 1, g.hi + 1):
        k = oracle_classify(g, n)
        if k != kind:
            out.append(Chain(kind, start, n - 1))
            start, kind = n, k
    out.append(Chain(kind, start, g.hi))
    return out


def oracle_chain_sum(g: Window, chain: tuple[str, int, int]) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the telescoping identity on a same-class run (kind, start,
    end): the sum of |c2| over it, and the four flanking values with the
    class's sign.  The run needs a stored point beyond each end."""
    kind, start, end = chain
    if not g.lo < start <= end < g.hi:
        raise ValueError("chain does not have a one-point margin inside the window")
    if any(oracle_classify(g, n) != kind for n in range(start, end + 1)):
        raise ValueError(f"not a run of class {kind!r}")
    lhs = sum((abs(g.c2(n)) for n in range(start, end + 1)), Fraction(0))
    rhs = g.at(start - 1) - g.at(start) - g.at(end) + g.at(end + 1)
    return lhs, -rhs if kind == MINUS else rhs


def oracle_second_norm(g: Window) -> Fraction:
    """sum over Z of |c2|: the interior terms and the two telescoped tails."""
    left_tail, right_tail = g.at(g.lo + 1) - g.at(g.lo), g.at(g.hi - 1) - g.at(g.hi)
    assert left_tail >= 0 and right_tail >= 0, "tail guarantee violated"
    return sum((abs(g.c2(n)) for n in range(g.lo + 1, g.hi)), left_tail + right_tail)


def oracle_funeq_rhs(g: Window) -> Fraction:
    """2 sum_{left} (g(n) - g(n-1)) + 2 sum_{right} (g(n) - g(n+1)); the
    limit terms of the general bound vanish under the window guarantee."""
    left, right = oracle_boundaries(g)
    return 2 * (sum((g.at(n) - g.at(n - 1) for n in left), Fraction(0))
                + sum((g.at(n) - g.at(n + 1) for n in right), Fraction(0)))


def reference_convexity(v: list[int]) -> tuple:
    """``regularity._convexity`` point by point, straight from the definitions:
    (sum |c2| plus both tail terms, first differences, c2, concave flags),
    positions 0 .. len(v) - 1; both edges are convex.  The norm here is the
    direct sum, not the concave mass."""
    m = len(v)
    second = [v[i - 1] + v[i + 1] - 2 * v[i] for i in range(1, m - 1)]
    return (sum(map(abs, second)) + (v[1] - v[0]) + (v[m - 2] - v[m - 1]),
            [v[i + 1] - v[i] for i in range(m - 1)], second,
            [False] + [c < 0 for c in second] + [False])


def oracle_battery(g: Window, a: IndexSet, blocks: int) -> tuple[bool, bool, bool, bool]:
    """The set battery's verdict on a window ``g`` of M chi_A, from the definitions in
    `Fraction`s, for a set ``a`` of ``blocks`` runs: (a negative edge step, the norm
    over ||chi''||_1 = 4 blocks above 3, a concave point outside ``a``, the variation
    above ||chi'||_1 = 2 blocks).  No sign is assumed for the edge steps: the norm
    adds both to the interior sum, and the variation is g(lo + 1) + g(hi - 1) plus
    the interior steps, as the tails of a maximal profile fall monotonely to 0."""
    c2 = {n: g.c2(n) for n in range(g.lo + 1, g.hi)}
    left, right = g.at(g.lo + 1) - g.at(g.lo), g.at(g.hi - 1) - g.at(g.hi)
    norm = sum(map(abs, c2.values()), left + right)
    variation = sum((abs(g.at(n + 1) - g.at(n)) for n in range(g.lo + 1, g.hi - 1)),
                    g.at(g.lo + 1) + g.at(g.hi - 1))
    return (left < 0 or right < 0, norm / (4 * blocks) > 3,
            any(c < 0 and n not in a for n, c in c2.items()), variation > 2 * blocks)


def assert_function_check_matches_oracle(f: LatticeFunction) -> None:
    """The integer passes of the function sweep on a nonzero integer-valued
    ``f`` against the oracle profile (the profile, and both
    norms, each equal to the oracle's boundary sum of its window), and the
    check's record, with no violation."""
    source, d, v, maximal = regularity._integer_passes([int(x) for x in f.values])
    g, gm = function_window(f), profile_window(maximal_profile(f))
    norm, max_norm = oracle_second_norm(g), oracle_second_norm(gm)
    assert [Fraction(x, d) for x in v] == list(gm.values)
    assert source[0] == norm == oracle_funeq_rhs(g)
    assert Fraction(maximal[0], d) == max_norm == oracle_funeq_rhs(gm)
    values = tuple(int(x) for x in f.values)
    winner, violations = regularity._check_function(values, spot_check=True)
    assert violations == []
    assert search._function_record(winner) == \
        GeneralRatioRecord(0, values, norm, max_norm, max_norm / norm)


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


def lane_rows(masks, columns, tables) -> list[list[int]]:
    """The row of each of ``masks`` in the lane ``columns`` of an exhaustive chunk
    (``lanes.columns``) over ``tables``, cut to the mask's window [-1, max + 1]."""
    return [lanes.row(columns, k, mask.bit_length() + 2, tables) for k, mask in enumerate(masks)]


def record_lanes(monkeypatch) -> list:
    """Record (masks, columns, verdicts) for each chunk an exhaustive sweep checks in
    lanes, from the calls of ``lanes.verdicts``."""
    real, records = lanes.verdicts, []

    def verdicts(masks, columns, tables):
        records.append((list(masks), columns, real(masks, columns, tables)))
        return records[-1][2]

    monkeypatch.setattr(lanes, "verdicts", verdicts)
    return records


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def edit_lanes(monkeypatch, edit):
    """Make each exhaustive chunk's lane columns (``lanes.columns``) pass the row of
    every mask, D_L * M chi_A at x = -1 .. L, through ``edit(mask, row, D_L)``,
    which returns the row to use."""
    real = lanes.columns

    def edited(masks, tables):
        columns, w = real(masks, tables), tables.width
        rows = zip(*[lanes.unpack(column, len(masks), w) for column in columns])
        rows = [edit(mask, list(row), tables.d) for mask, row in zip(masks, rows)]
        return [lanes.pack(column, w) for column in zip(*rows)] if rows else columns

    monkeypatch.setattr(lanes, "columns", edited)


def corrupt_singleton_kernel(monkeypatch):
    """Make the set profile kernel return 1/2 instead of 1 at the point of {0}, and
    so the lane of mask 1 in the exhaustive sweeps."""
    real = regularity.set_maxima

    def corrupted(elements):
        if elements == (0,):
            return [1, 1, 1], [2, 2, 2]
        return real(elements)

    monkeypatch.setattr(regularity, "set_maxima", corrupted)
    edit_lanes(monkeypatch, lambda mask, row, d: [row[0], d // 2, *row[2:]] if mask == 1 else row)


def lift_first_value(monkeypatch, skip: int = 0):
    """Make every profile kernel call after the first ``skip``, for sets and
    for functions alike, add 1 to its first value, which lifts the left edge
    above its neighbour; an exhaustive sweep's lanes count as one call each, in
    order, and are lifted at x = -1."""
    calls = 0

    def lifting(real):
        def lifted(arg):
            nonlocal calls
            nums, dens = real(arg)
            calls += 1
            if calls > skip:
                nums = [nums[0] + dens[0]] + nums[1:]
            return nums, dens
        return lifted

    def lifted_lane(mask, row, d):
        nonlocal calls
        calls += 1
        return [row[0] + d, *row[1:]] if calls > skip else row

    for kernel in ("set_maxima", "window_maxima"):
        monkeypatch.setattr(regularity, kernel, lifting(getattr(regularity, kernel)))
    edit_lanes(monkeypatch, lifted_lane)


def break_pass(monkeypatch, elements: tuple[int, ...], edit):
    """Make the integer pass of the profile of the set with ``elements``, in every
    set sweep and in ``analyze``, ``edit(pass, v, D)``: ``v`` is D * M chi_A on its
    window and the pass is ``regularity._convexity(v)``, (norm, first differences,
    c2, concave flags).  The profile is recognised over any denominator, as the
    window proportional to the set's own; D is its largest value, as M chi_A = 1
    exactly on A.  In an exhaustive sweep the set's lane verdicts (``lanes.verdicts``)
    are the edited pass's norm, variation and flags, its four tests against the lane's
    block count, so its lane fails the tests that the edited pass fails."""
    target = analyze(IndexSet(elements)).scaled
    mask = sum(1 << x for x in elements)
    real, real_verdicts = regularity._convexity, lanes.verdicts

    def broken(v):
        p = real(v)
        if len(v) == len(target) and [x * target[0] for x in v] == [y * v[0] for y in target]:
            p = edit(p, v, max(v))
        return p

    def verdicts(masks, columns, tables):
        out = [list(lane_values) for lane_values in real_verdicts(masks, columns, tables)]
        if mask in masks:
            k, w = masks.index(mask), tables.width
            v = lanes.row(columns, k, len(target), tables)
            norm, first, _, concave = broken(v)
            out[0][k], out[1][k] = norm, v[1] + sum(map(abs, first[1:-1])) + v[-2]
            bound = out[3][k] * tables.d
            out[2][k] = (first[0] < 0 or first[-1] > 0) << w - 1 | any(
                c and x != tables.d for c, x in zip(concave, v)) << w - 2 | (
                out[0][k] > 12 * bound) << w - 3 | (out[1][k] > 2 * bound) << w - 4
        return tuple(out)

    monkeypatch.setattr(regularity, "_convexity", broken)
    monkeypatch.setattr(lanes, "verdicts", verdicts)


def vary_to(total: int):
    """A :func:`break_pass` edit: the first inner step of the pass lowered until
    D * Var(M chi_A), v(1) + sum |first[1:-1]| + v(-2), is ``total`` * D."""
    def edit(p, v, d):
        norm, first, *rest = p
        first = list(first)
        first[1] -= total * d - (v[1] + sum(map(abs, first[1:-1])) + v[-2])
        return (norm, first, *rest)
    return edit


def lift_edge(monkeypatch, elements: tuple[int, ...], edge: int):
    """Make the set kernel add 1 to the profile of the set with ``elements``, 0 its
    least, at window position ``edge`` (0 or -1), which lifts that edge above its
    neighbour; in an exhaustive sweep, the set's lane at x = -1 or max + 1."""
    real = regularity.set_maxima

    def lifted(els):
        nums, dens = real(els)
        if els == elements:
            nums = list(nums)
            nums[edge] += dens[edge]
        return nums, dens

    def lifted_lane(mask, row, d):
        if mask == sum(1 << x for x in elements):
            row[edge % (elements[-1] + 3)] += d
        return row

    monkeypatch.setattr(regularity, "set_maxima", lifted)
    edit_lanes(monkeypatch, lifted_lane)


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
